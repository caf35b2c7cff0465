package llm

import "math/rand"

// math/rand's additive lagged-Fibonacci generator (rng.go): 607 state
// words, tap 273 words behind the feed.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// The seeding generator is Lehmer's, x ← lehmerA·x mod lehmerP.
	lehmerA = 48271
	lehmerP = 1<<31 - 1
	// math/rand's Seed steps it 20 times, then 3 times per state word.
	seedSteps = 20 + 3*rngLen
)

// lehmerPow[n] = lehmerA^n mod lehmerP, so the seeding generator's n-th
// value from seed x is x·lehmerPow[n] mod lehmerP.
var lehmerPow = func() (pow [seedSteps + 1]uint64) {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * lehmerA % lehmerP
	}
	return pow
}()

// source is math/rand's rngSource with an O(1) Seed. math/rand fills
// all 607 state words when seeded, 1841 seeding-generator steps; source
// fills a word when the stream first touches it. Word i depends only on
// the seed: the seeding generator's values 21+3i, 22+3i and 23+3i,
// shifted and XORed onto rngCooked[i], exactly as rngSource.Seed lays
// them out. A run that draws a few dozen values touches a few dozen
// words, so reseeding a pooled generator costs about as much as the
// draws.
type source struct {
	tap, feed int
	x         uint64                     // the normalized seed, in [1, lehmerP)
	touched   [(rngLen + 63) / 64]uint64 // bit i: vec[i] holds the state word
	vec       [rngLen]int64
}

// NewSource returns a rand.Source64 whose stream equals
// rand.NewSource(seed)'s for every seed, before and after any Seed.
// Like rand.NewSource's, it is not safe for concurrent use.
func NewSource(seed int64) rand.Source64 {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed normalizes the seed as rngSource.Seed does and forgets every
// state word.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x = uint64(seed)
	s.touched = [len(s.touched)]uint64{}
}

// word returns state word i, computing it on first touch.
func (s *source) word(i int) int64 {
	bit := uint64(1) << (i & 63)
	if s.touched[i>>6]&bit == 0 {
		s.touched[i>>6] |= bit
		n := 21 + 3*i
		s.vec[i] = rngCooked[i] ^
			int64(s.x*lehmerPow[n]%lehmerP)<<40 ^
			int64(s.x*lehmerPow[n+1]%lehmerP)<<20 ^
			int64(s.x*lehmerPow[n+2]%lehmerP)
	}
	return s.vec[i]
}

// Uint64 is rngSource.Uint64: one lagged-Fibonacci step.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
