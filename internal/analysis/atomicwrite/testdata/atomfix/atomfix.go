// Package atomfix is the atomicwrite fixture: one function per rule,
// plus the clean temp+sync+rename shape and both escape hatches.
//
//multicube:durable
package atomfix

import (
	"os"
	"path/filepath"
)

// writeInPlace violates rule 1 twice: the durable payload lands at its
// final path with no crash-safe window.
func writeInPlace(dir string, data []byte) error {
	if err := os.WriteFile(filepath.Join(dir, "state.bin"), data, 0o644); err != nil { // want `durable file written in place via os.WriteFile`
		return err
	}
	f, err := os.Create(filepath.Join(dir, "log.txt")) // want `durable file written in place via os.Create`
	if err != nil {
		return err
	}
	return f.Close()
}

// writeScratch is clean: the .tmp suffix marks the path as scratch.
func writeScratch(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "scratch.tmp"), data, 0o644)
}

// writeProper is the canonical shape: temp sibling, Sync before Close,
// rename into place, temp-derived cleanup on every error path.
func writeProper(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "state.tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, "state.bin")); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// writeMissingSync violates rule 2: the rename publishes a temp file
// whose data may still be dirty page cache.
func writeMissingSync(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "state.tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, "state.bin")) // want `os.Rename publishes tmp.Name\(\) without a tmp.Sync\(\)`
}

// renameForeign violates rule 2's other arm: the source is not a temp
// file this function created, so its durability is invisible.
func renameForeign(dir string) error {
	return os.Rename(filepath.Join(dir, "staged"), filepath.Join(dir, "state.bin")) // want `is not a synced temp file from this function`
}

// deleteDurable violates rule 3: nothing ties the delete to the
// manifest-pin discipline.
func deleteDurable(dir string) error {
	if err := os.Remove(filepath.Join(dir, "state.bin")); err != nil { // want `durable file deleted via os.Remove outside the manifest-pin discipline`
		return err
	}
	return os.RemoveAll(dir) // want `durable file deleted via os.RemoveAll outside the manifest-pin discipline`
}

// deleteAnnotated is clean: the statement-level escape hatch names the
// retention rule.
func deleteAnnotated(dir string) error {
	//multicube:atomicwrite-ok fixture stand-in for a manifest-pinned sweep
	return os.Remove(filepath.Join(dir, "stale.bin"))
}

// deleteFuncAnnotated is clean: the function-level escape hatch covers
// every durable operation in the body.
//
//multicube:atomicwrite-ok fixture stand-in for a GC that runs after the manifest rename
func deleteFuncAnnotated(dir string) error {
	if err := os.WriteFile(filepath.Join(dir, "tombstone"), nil, 0o644); err != nil {
		return err
	}
	return os.Remove(filepath.Join(dir, "state.bin"))
}
