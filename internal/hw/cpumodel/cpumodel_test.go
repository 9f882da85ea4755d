package cpumodel

import (
	"testing"

	"zkphire/internal/poly"
)

func TestPaperAnchors(t *testing.T) {
	// Table II anchor: poly 22 at 2^24 gates on 4 threads ≈ 74.2 s.
	m := PaperCPU(4)
	got := m.SumcheckSeconds(poly.Registered(22), 24)
	if got < 50 || got > 100 {
		t.Fatalf("poly22@2^24 4T = %.1f s, paper 74.2 s", got)
	}
	// Poly 20 at 2^24 ≈ 13.4 s.
	got = m.SumcheckSeconds(poly.Registered(20), 24)
	if got < 8 || got > 25 {
		t.Fatalf("poly20@2^24 4T = %.1f s, paper 13.4 s", got)
	}
	// Poly 21 ≈ 21.6 s.
	got = m.SumcheckSeconds(poly.Registered(21), 24)
	if got < 10 || got > 35 {
		t.Fatalf("poly21@2^24 4T = %.1f s, paper 21.6 s", got)
	}
}

func TestThreadScaling(t *testing.T) {
	p := poly.Registered(20)
	t1 := PaperCPU(1).SumcheckSeconds(p, 20)
	t4 := PaperCPU(4).SumcheckSeconds(p, 20)
	t32 := PaperCPU(32).SumcheckSeconds(p, 20)
	if t4 >= t1 || t32 >= t4 {
		t.Fatal("more threads should be faster")
	}
	if t1/t32 > 32 {
		t.Fatal("super-linear thread scaling")
	}
}

func TestMSMModel(t *testing.T) {
	m := PaperCPU(32)
	small := m.MSMSeconds(1<<20, 0)
	large := m.MSMSeconds(1<<24, 0)
	if large < 10*small {
		t.Fatal("MSM should scale ~linearly")
	}
	sparse := m.MSMSeconds(1<<24, 0.9)
	if sparse >= large {
		t.Fatal("sparse MSM should be cheaper")
	}
}

func TestGPUReferenceTable(t *testing.T) {
	if len(GPUTable2MS) < 6 {
		t.Fatal("missing GPU reference entries")
	}
	for k, v := range GPUTable2MS {
		if v <= 0 {
			t.Fatalf("GPU entry %s non-positive", k)
		}
	}
}
