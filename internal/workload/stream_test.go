package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
)

// streamHash hashes every field of every reference the generator draws
// under cfg — think time, address, read or write, stored value — in the
// order References yields them, from the same generators Run consumes.
func streamHash(cfg GenConfig, procs, blockWords int) uint64 {
	cfg.fillDefaults()
	gens := make([]gen, procs)
	for id := range gens {
		gens[id] = newGen(&cfg, id, procs, core.Addr(blockWords))
	}
	h := fnv.New64a()
	var r ref
	var buf [25]byte
	for j := 0; j < cfg.Requests; j++ {
		for id := range gens {
			gens[id].next(&r)
			binary.LittleEndian.PutUint64(buf[0:], uint64(r.think))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.addr))
			binary.LittleEndian.PutUint64(buf[16:], r.value)
			buf[24] = 0
			if r.write {
				buf[24] = 1
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGeneratorStreamsPinned holds the generator's reference streams to
// hashes taken before the think time was drawn without math.Log and
// before Intn masked a power-of-two bound: any change to what a seed
// draws fails here. The cases cover both benchmark mixes (power-of-two
// line counts and 16-word blocks), the DES golden's 24/12-line mix
// (Intn's remainder path) and blocks of 8 and 12 words (a 12-word
// block draws its word offset by remainder too).
func TestGeneratorStreamsPinned(t *testing.T) {
	bench := GenConfig{Seed: 1, Think: 10 * sim.Microsecond, Exponential: true,
		SharedLines: 64, PrivateLines: 16, PWrite: 0.3, Requests: 2000}
	shared, private := bench, bench
	shared.PShared, private.PShared = 0.5, 0.01
	golden := GenConfig{Seed: 7, Think: 4 * sim.Microsecond, Exponential: true,
		SharedLines: 24, PrivateLines: 12, PShared: 0.6, PWrite: 0.4, Requests: 3000}
	fixed := golden
	fixed.Exponential = false
	for _, tc := range []struct {
		name              string
		cfg               GenConfig
		procs, blockWords int
		want              uint64
	}{
		{"des-shared", shared, 64, 16, 0xe73a4caee34064e6},
		{"des-private", private, 64, 16, 0x141d8396bc356da6},
		{"golden-24-12", golden, 16, 16, 0x611d195548405f9a},
		{"block-8", golden, 9, 8, 0x54d66120debe373b},
		{"block-12", shared, 16, 12, 0xc9687a7d2f064654},
		{"fixed-think", fixed, 4, 12, 0x7785b93c1fdd4de5},
	} {
		if got := streamHash(tc.cfg, tc.procs, tc.blockWords); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
