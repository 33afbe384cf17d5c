// Package durable holds the one writer through which the repository's
// durable files — statespace frontiers and manifests, farm cache entries
// and corpus seeds — become visible: a temp file beside the destination,
// written, fsynced, closed, then renamed into place. A crash at any point
// leaves either the previous file or the new one, never a torn one; an
// unsynced rename could surface a complete-looking name with empty or
// torn contents, and every reader here trusts what validates. Spilled
// statespace runs skip the fsync here; a checkpoint syncs those it pins.
//
// The package is marked for multicube-vet's atomicwrite pass, which holds
// this writer to that shape.
//
//multicube:durable
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data. The temp file is created
// in path's directory (a rename across filesystems is not atomic) with
// ".tmp" in its name, which is what the stores' startup sweeps recognise
// as a dropping of a writer killed before its rename. On any error the
// temp file is removed and path is untouched. The directory itself is not
// fsynced.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
