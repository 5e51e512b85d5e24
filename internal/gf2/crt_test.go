package gf2

import (
	"math/rand"
	"testing"
)

func TestCRTPaperExample(t *testing.T) {
	// Fig. 1: s1=t+1, s2=t^2+t+1, s3=t^3+t+1 with output ports
	// o1=1, o2=t, o3=t^2+t. The routeID must reproduce each port under mod.
	moduli := []Poly{FromUint64(0b11), FromUint64(0b111), FromUint64(0b1011)}
	residues := []Poly{One, T, FromUint64(0b110)}
	r, err := CRT(residues, moduli)
	if err != nil {
		t.Fatal(err)
	}
	for i := range moduli {
		if got := r.Mod(moduli[i]); !got.Equal(residues[i]) {
			t.Errorf("routeID mod s%d = %v, want %v", i+1, got, residues[i])
		}
	}
	if d := r.Degree(); d >= 6 {
		t.Errorf("routeID degree %d, want < 6 (= sum of moduli degrees)", d)
	}
}

func TestCRTRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	irr := IrreducibleSequence(2, 12)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		// Choose n distinct irreducible moduli.
		perm := rng.Perm(len(irr))[:n]
		moduli := make([]Poly, n)
		residues := make([]Poly, n)
		for i, idx := range perm {
			moduli[i] = irr[idx]
			residues[i] = FromUint64(rng.Uint64() & ((1 << moduli[i].Degree()) - 1))
		}
		r, err := CRT(residues, moduli)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range moduli {
			if got := r.Mod(moduli[i]); !got.Equal(residues[i]) {
				t.Fatalf("trial %d: r mod %v = %v, want %v", trial, moduli[i], got, residues[i])
			}
		}
	}
}

func TestCRTErrors(t *testing.T) {
	m := FromUint64(0b111)
	if _, err := CRT([]Poly{One}, []Poly{m, m}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := CRT(nil, nil); err == nil {
		t.Error("empty system should fail")
	}
	if _, err := CRT([]Poly{FromUint64(0b100)}, []Poly{m}); err == nil {
		t.Error("residue degree >= modulus degree should fail")
	}
	if _, err := CRT([]Poly{One, One}, []Poly{m, m}); err == nil {
		t.Error("non-coprime moduli should fail")
	}
	if _, err := CRT([]Poly{Zero}, []Poly{One}); err == nil {
		t.Error("degree-0 modulus should fail")
	}
}

func TestCRTBasisMatchesDirect(t *testing.T) {
	for _, minDegree := range []int{3, 4} {
		moduli := IrreducibleSequence(minDegree, 5)
		basis, err := NewCRTBasis(moduli)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 30; trial++ {
			residues := make([]Poly, len(moduli))
			for i := range residues {
				residues[i] = FromUint64(rng.Uint64() & ((1 << moduli[i].Degree()) - 1))
			}
			fromBasis, err := basis.Solve(residues)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := CRT(residues, moduli)
			if err != nil {
				t.Fatal(err)
			}
			if !fromBasis.Equal(direct) {
				t.Fatalf("degree ≥ %d: basis solve %v != direct CRT %v", minDegree, fromBasis, direct)
			}
		}
	}
}

func TestCRTBasisErrors(t *testing.T) {
	if _, err := NewCRTBasis(nil); err == nil {
		t.Error("empty basis should fail")
	}
	m := FromUint64(0b111)
	if _, err := NewCRTBasis([]Poly{m, m}); err == nil {
		t.Error("duplicate moduli should fail")
	}
	b, err := NewCRTBasis([]Poly{m, FromUint64(0b1011)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Solve([]Poly{One}); err == nil {
		t.Error("wrong residue count should fail")
	}
	if _, err := b.Solve([]Poly{FromUint64(0b100), One}); err == nil {
		t.Error("residue degree >= modulus should fail")
	}
	if got := len(b.Moduli()); got != 2 {
		t.Errorf("Moduli() len = %d, want 2", got)
	}
	if b.Product().Degree() != 5 {
		t.Errorf("Product degree = %d, want 5", b.Product().Degree())
	}
}
