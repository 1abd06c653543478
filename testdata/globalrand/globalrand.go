// Package globalrand is the fixture for the determinism guard in
// determinism_test.go: every line the guard must flag carries a want
// comment with a pattern its message must match, and no other line may be
// flagged.
package globalrand

import (
	"math/rand"
	mathrand "math/rand"
	randv2 "math/rand/v2"
)

// Seeded draws only from explicitly seeded generators: allowed.
func Seeded() int {
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, 1.5, 1, 10)
	var src rand.Source = mathrand.NewSource(2)
	_ = src
	r2 := randv2.New(randv2.NewPCG(1, 2))
	return r.Intn(10) + int(z.Uint64()) + r2.IntN(3)
}

// Global draws from the process-wide source: every use is flagged.
func Global() {
	_ = rand.Intn(10)                  // want "package-level math/rand"
	rand.Shuffle(3, func(i, j int) {}) // want "package-level math/rand"
	_ = mathrand.Float64()             // want "seeded rand.New"
	_ = randv2.IntN(4)                 // want "package-level math/rand"
	f := rand.Int63                    // want "package-level math/rand"
	_ = f
}
