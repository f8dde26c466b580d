package graphx

import "math/rand"

// The lags of math/rand's default source, an additive lagged Fibonacci
// generator: its nth output is x[n] = x[n-607] + x[n-273] mod 2^64, and
// Int63 is x[n] & (1<<63 - 1).
const (
	streamLen = 607
	streamTap = 273
)

// randStream holds streamLen consecutive outputs of rand.NewSource(seed),
// oldest first, so a generator can read the source's sequence in place:
// it reads s[0] through s[streamLen-1], then refills the ring with the
// next streamLen outputs and starts over.
type randStream [streamLen]uint64

// newRandStream returns the first streamLen outputs of rand.NewSource(seed),
// drawn from the source itself.
func newRandStream(seed int64) *randStream {
	src := rand.NewSource(seed).(rand.Source64)
	s := new(randStream)
	for i := range s {
		s[i] = src.Uint64()
	}
	return s
}

// refill replaces the ring's outputs with the next streamLen, in place.
// The output streamLen after s[j] is s[j] + s[j+streamLen-streamTap]:
// the second term is an old output for j < streamTap and, from there on,
// s[j-streamTap], an output this refill has already written. The compiler
// inlines it, so a draw loop that calls it keeps its own state in
// registers.
func (s *randStream) refill() {
	for j := 0; j < streamTap; j++ {
		s[j] += s[j+streamLen-streamTap]
	}
	for j := streamTap; j < streamLen; j++ {
		s[j] += s[j-streamTap]
	}
}
