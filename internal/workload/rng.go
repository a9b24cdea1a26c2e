package workload

// RNG is a splitmix64 pseudo-random generator: cheap, seedable, and
// stateless enough to live in each stream without synchronization.
type RNG uint64

const golden = 0x9e3779b97f4a7c15

// Next returns the next 64 pseudo-random bits: the finalizer applied to
// the advancing state (mix64 folds the golden-ratio step in).
func (r *RNG) Next() uint64 {
	v := mix64(uint64(*r))
	*r += golden
	return v
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// mix64 is a stateless splitmix64 finalizer, used to scramble ranks into
// keys without a stored permutation. The golden-ratio salt keeps 0 from
// being a fixed point — rank 0 is zipfian's hottest rank, and an unsalted
// finalizer would pin it to key 0, the head of every sorted structure.
func mix64(z uint64) uint64 {
	z += golden
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
