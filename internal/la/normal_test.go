package la

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rgml/rgml/internal/par"
)

// TestNormalMultVecMatchesPair pins the fused kernel's contract: xp and q
// are bitwise-equal to MultVec followed by TransMultVec, at every worker
// count, on shapes that straddle the tile height, the 4-row fold groups
// and the 4-column GEMV groups.
func TestNormalMultVecMatchesPair(t *testing.T) {
	shapes := []struct {
		name       string
		rows, cols int
	}{
		{"rows-not-multiple-of-4", 4003, 37},
		{"rows-multiple-of-4-multi-tile", 4096, 64},
		{"rows-odd-multi-tile", 2501, 64},
		{"shorter-than-one-tile", 50, 64},
		{"zero-rows", 0, 9},
		{"one-row", 1, 9},
		{"cols-not-multiple-of-4", 777, 5},
		{"one-col", 999, 1},
		{"zero-cols", 13, 0},
		{"wide", 11, 40000},
	}
	defer par.SetWorkers(0)
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.rows*131 + sh.cols)))
		m := testRandDense(sh.rows, sh.cols, rng)
		p := testRandVec(sh.cols, rng)
		wantXP := NewVector(sh.rows)
		wantQ := NewVector(sh.cols)
		m.MultVec(p, wantXP)
		m.TransMultVec(wantXP, wantQ)
		for _, w := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/%dx%d/workers=%d", sh.name, sh.rows, sh.cols, w), func(t *testing.T) {
				par.SetWorkers(w)
				xp := NewVector(sh.rows)
				q := NewVector(sh.cols)
				for i := range q {
					q[i] = 123 // stale output must be overwritten
				}
				m.NormalMultVec(p, xp, q)
				if !bitEqual(xp, wantXP) {
					t.Fatal("xp differs bitwise from MultVec")
				}
				if !bitEqual(q, wantQ) {
					t.Fatal("q differs bitwise from MultVec then TransMultVec")
				}
			})
		}
	}
}

// TestNormalTileRows: every tile height is a positive multiple of 4 — the
// condition that keeps each row in the accumulator dot4 would use.
func TestNormalTileRows(t *testing.T) {
	for _, cols := range []int{0, 1, 3, 37, 64, 500, 1 << 20} {
		if r := normalTileRows(cols); r < 4 || r%4 != 0 {
			t.Fatalf("normalTileRows(%d) = %d, want a positive multiple of 4", cols, r)
		}
	}
}

func TestNormalMultVecDimPanics(t *testing.T) {
	m := NewDense(6, 3)
	for name, f := range map[string]func(){
		"p":  func() { m.NormalMultVec(NewVector(2), NewVector(6), NewVector(3)) },
		"xp": func() { m.NormalMultVec(NewVector(3), NewVector(5), NewVector(3)) },
		"q":  func() { m.NormalMultVec(NewVector(3), NewVector(6), NewVector(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}
