package topology

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 2); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(2, 60); err == nil {
		t.Error("2^60 accepted")
	}
	if _, err := New(32, 2); err != nil {
		t.Errorf("32x32 rejected: %v", err)
	}
}

func TestPaperConfigurations(t *testing.T) {
	// The three named special cases from Section 6.
	cases := []struct {
		name       string
		n, k       int
		processors int
		buses      int
	}{
		{"multi (k=1)", 16, 1, 16, 1},
		{"hypercube (n=2)", 2, 6, 64, 192},
		{"Wisconsin Multicube", 32, 2, 1024, 64},
		{"figure-5 multicube", 4, 3, 64, 48},
	}
	for _, c := range cases {
		m := MustNew(c.n, c.k)
		if got := m.Processors(); got != c.processors {
			t.Errorf("%s: Processors() = %d, want %d", c.name, got, c.processors)
		}
		if got := m.Buses(); got != c.buses {
			t.Errorf("%s: Buses() = %d, want %d", c.name, got, c.buses)
		}
	}
}

func TestScalingFormulas(t *testing.T) {
	// Section 6: bandwidth per processor = k/n; invalidation ops ~ (N-1)/(n-1).
	m := MustNew(32, 2)
	if got := m.BandwidthPerProcessor(); math.Abs(got-2.0/32.0) > 1e-12 {
		t.Errorf("BandwidthPerProcessor = %g, want %g", got, 2.0/32.0)
	}
	if got := m.InvalidationBusOps(); math.Abs(got-1023.0/31.0) > 1e-12 {
		t.Errorf("InvalidationBusOps = %g, want %g", got, 1023.0/31.0)
	}
	// For a multi (k=1) the invalidation is a single bus operation.
	multi := MustNew(16, 1)
	if got := multi.InvalidationBusOps(); got != 1 {
		t.Errorf("multi InvalidationBusOps = %g, want 1", got)
	}
}
