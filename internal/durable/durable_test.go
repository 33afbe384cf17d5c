package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFile covers the contract the five callers rely on: the file
// appears whole, a second write replaces it, and neither a success nor a
// failure leaves a temp file behind.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	for _, want := range []string{"first", "second, longer"} {
		if err := WriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "*")); len(got) != 1 {
		t.Fatalf("directory holds %v after two writes, want the entry alone", got)
	}

	// The rename fails (the destination is a non-empty directory): the
	// error is returned, the destination is untouched, the temp is gone.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, []byte("x")); err == nil {
		t.Fatal("a write over a non-empty directory succeeded")
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "*")); len(got) != 2 {
		t.Fatalf("directory holds %v after a failed rename, want the entry and the directory", got)
	}

	// The temp cannot be created (no such directory): an error, not a panic.
	if err := WriteFile(filepath.Join(dir, "missing", "entry.json"), nil); err == nil {
		t.Fatal("a write into a missing directory succeeded")
	}
}
