// Package fphash is the one hasher behind every state fingerprint of the
// model checker: the machine fingerprints of internal/coherence
// (full-walk and incremental) and internal/singlebus (full-walk), and the
// driver and canonical-minimum combines of internal/mc. Callers feed it a
// sequence of 64-bit words — a byte or a bool is one word — and read the
// state back as the fingerprint; what is fed, and so which states are told
// apart, is theirs to define.
//
// One step costs an xor, a multiply and a shift-xor per word, where the
// byte-wise FNV-1a it replaces paid eight multiplies. Both halves of a
// step are bijections of the state for a fixed word, and the first is a
// bijection of the word for a fixed state, so two equally long sequences
// that differ in exactly one word never collide; everything else is an
// ordinary 2⁻⁶⁴ per pair. The multiply carries every input bit into the
// top of the state and the shift-xor folds the top half back down for the
// next multiply, so the high bits — statespace shards on the top 6, or
// fewer under a small memory budget — are the best mixed.
//
// Fingerprint values are not stable across versions of this package; the
// explorer depends only on equality. On-disk checksums
// (statespace.fnvBytes, mc.fnvString) are separate on purpose.
//
//multicube:deterministic
package fphash

// Hash is the running state; its value after the last Word is the
// fingerprint.
type Hash uint64

const (
	seed = 0xcbf29ce484222325
	// mult is 2⁶⁴/φ rounded to odd: multiples of it are spread evenly
	// over the 64-bit range, so small differences between words land far
	// apart in the high bits.
	mult = 0x9e3779b97f4a7c15
)

// New returns the state of the empty sequence.
func New() Hash { return seed }

// Word appends one 64-bit word.
func (h *Hash) Word(v uint64) {
	x := (uint64(*h) ^ v) * mult
	*h = Hash(x ^ x>>32)
}

// Bit appends a bool as one word.
func (h *Hash) Bit(b bool) {
	if b {
		h.Word(1)
	} else {
		h.Word(0)
	}
}

// Sum returns the fingerprint of the words appended so far.
func (h Hash) Sum() uint64 { return uint64(h) }
