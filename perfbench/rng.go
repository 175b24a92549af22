package main

// splitmix64 is the benchmark's only source of randomness: every input a
// workload hands the program is derived from --seed through it, so the
// same seed always produces the same op stream.

// mix is the splitmix64 finalizer: a stateless hash of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream. stream separates independent uses of one
// seed (per-caller generators, prefill lengths, page values).
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: mix(seed) ^ mix(stream+0x51ed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }
