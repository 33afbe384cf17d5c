// Command multicube-vet runs the repository's invariant suite — genbump,
// detmap, nowallclock, chooserseam, inclusion, atomicwrite — over the
// given package patterns (default ./...). It exits 0 when clean, 1 with findings, 2 on errors,
// mirroring go vet. See internal/analysis and each pass's package
// documentation for the enforced invariants and the //multicube:
// directive syntax.
//
// Usage:
//
//	go run ./cmd/multicube-vet ./...
//	go run ./cmd/multicube-vet -only=genbump -time ./internal/coherence
package main

import (
	"os"

	"multicube/internal/analysis/multichecker"
)

func main() {
	os.Exit(multichecker.Run("", os.Stdout, os.Args[1:]))
}
