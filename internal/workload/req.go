package workload

import (
	"encoding/json"
	"fmt"
)

// ReqKind is an abstract *request* shape — one level above Op. Where an
// Op stream models point-op traffic, a Req stream models the service
// request graph the exec layer serves: point batches, multi-key fan-out
// operations, and range queries that scatter across every shard.
type ReqKind uint8

// Request shapes, in mix order.
const (
	// ReqPoint is a batch of independent point operations (the classic
	// store.Do shape).
	ReqPoint ReqKind = iota
	// ReqMultiGet reads membership of several keys as one operation.
	ReqMultiGet
	// ReqMultiInsert inserts several keys as one operation.
	ReqMultiInsert
	// ReqMultiDelete deletes several keys as one operation.
	ReqMultiDelete
	// ReqRangeScan collects the live keys inside [Lo, Hi).
	ReqRangeScan
	// ReqRangeCount counts the live keys inside [Lo, Hi).
	ReqRangeCount
	reqKindCount
)

var reqKindNames = [reqKindCount]string{
	ReqPoint:       "point",
	ReqMultiGet:    "multiget",
	ReqMultiInsert: "multiinsert",
	ReqMultiDelete: "multidelete",
	ReqRangeScan:   "rangescan",
	ReqRangeCount:  "rangecount",
}

// String returns the request-kind name.
func (k ReqKind) String() string {
	if int(k) < len(reqKindNames) {
		return reqKindNames[k]
	}
	return fmt.Sprintf("reqkind(%d)", uint8(k))
}

// ReqMix is a request-shape mix in percent; the six fields must sum to
// 100. It is to Req streams what Mix is to Op streams.
type ReqMix struct {
	PointPct       int
	MultiGetPct    int
	MultiInsertPct int
	MultiDeletePct int
	RangeScanPct   int
	RangeCountPct  int
}

// String renders the mix as "p/g/i/d/s/c".
func (m ReqMix) String() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d",
		m.PointPct, m.MultiGetPct, m.MultiInsertPct, m.MultiDeletePct, m.RangeScanPct, m.RangeCountPct)
}

// Validate reports whether the mix is a well-formed percentage set:
// non-negative components summing to 100.
func (m ReqMix) Validate() error {
	parts := []int{m.PointPct, m.MultiGetPct, m.MultiInsertPct, m.MultiDeletePct, m.RangeScanPct, m.RangeCountPct}
	sum := 0
	for _, p := range parts {
		if p < 0 {
			return fmt.Errorf("workload: request mix %v has a negative component", m)
		}
		sum += p
	}
	if sum != 100 {
		return fmt.Errorf("workload: request mix %v sums to %d, want 100", m, sum)
	}
	return nil
}

// MarshalJSON renders the mix as its "p/g/i/d/s/c" string.
func (m ReqMix) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", m.String())), nil
}

// UnmarshalJSON parses the "p/g/i/d/s/c" string form.
func (m *ReqMix) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseReqMix(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseReqMix parses a "p/g/i/d/s/c" percentage sextuple.
func ParseReqMix(s string) (ReqMix, error) {
	var m ReqMix
	if _, err := fmt.Sscanf(s, "%d/%d/%d/%d/%d/%d",
		&m.PointPct, &m.MultiGetPct, &m.MultiInsertPct, &m.MultiDeletePct, &m.RangeScanPct, &m.RangeCountPct); err != nil {
		return ReqMix{}, fmt.Errorf("workload: request mix %q is not p/g/i/d/s/c percentages: %v", s, err)
	}
	if err := m.Validate(); err != nil {
		return ReqMix{}, err
	}
	return m, nil
}

// Standard request mixes for the pipeline experiments: pure fan-out
// (every request scatters), a mixed service shape, and range-heavy
// analytic traffic.
var (
	ReqMixFanout     = ReqMix{0, 40, 20, 20, 10, 10}
	ReqMixMixed      = ReqMix{50, 20, 10, 10, 5, 5}
	ReqMixRangeHeavy = ReqMix{20, 10, 5, 5, 40, 20}
)

// Req is one drawn service request: a kind, the keys a multi-key request
// touches (point batches reuse Keys with per-key Ops), or the [Lo, Hi)
// interval a range request covers.
type Req struct {
	Kind ReqKind
	// Ops holds the per-key point operations for ReqPoint requests.
	Ops []Op
	// Keys are the multi-key request's targets (ReqMultiGet/Insert/Delete).
	Keys []int64
	// Lo and Hi bound a range request's half-open interval.
	Lo, Hi int64
}

// ReqConfig names a request workload: the key distribution the keys come
// from, the request-shape mix, and the fan-out geometry.
type ReqConfig struct {
	// Dist is the key distribution name; empty selects "uniform".
	Dist string
	// KeyRange is the key universe size [0, KeyRange).
	KeyRange int
	// Mix is the request-shape mix; zero selects ReqMixMixed.
	Mix ReqMix
	// OpMix is the point-batch operation mix; zero selects MixBalanced.
	OpMix Mix
	// BatchSize is the point-batch length; 0 selects 16.
	BatchSize int
	// MultiSize is the key count per multi-key request; 0 selects 8.
	MultiSize int
	// RangeSpan is the width of range-request intervals; 0 selects
	// KeyRange/16 (min 16).
	RangeSpan int
	// Seed makes every stream deterministic.
	Seed uint64
}

func (cfg *ReqConfig) fill() error {
	if cfg.Dist == "" {
		cfg.Dist = "uniform"
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.Mix == (ReqMix{}) {
		cfg.Mix = ReqMixMixed
	}
	if err := cfg.Mix.Validate(); err != nil {
		return err
	}
	if cfg.OpMix == (Mix{}) {
		cfg.OpMix = MixBalanced
	}
	if err := cfg.OpMix.Validate(); err != nil {
		return err
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.MultiSize <= 0 {
		cfg.MultiSize = 8
	}
	if cfg.RangeSpan <= 0 {
		cfg.RangeSpan = cfg.KeyRange / 16
		if cfg.RangeSpan < 16 {
			cfg.RangeSpan = 16
		}
	}
	return nil
}

// ReqSource builds per-client request streams for one request workload.
type ReqSource struct {
	dist Dist
	cfg  ReqConfig
}

// NewReqSource resolves the named distribution into a request source.
func NewReqSource(cfg ReqConfig) (*ReqSource, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	dist, err := NewDist(cfg.Dist, cfg.KeyRange)
	if err != nil {
		return nil, err
	}
	return &ReqSource{dist: dist, cfg: cfg}, nil
}

// Thread returns client tid's request stream of the given nominal length
// (the length only parameterizes phase-aware distributions; streams keep
// drawing past it). Streams for distinct (tid, seed) pairs are
// independent and deterministic.
func (s *ReqSource) Thread(tid, total int) *ReqStream {
	return &ReqStream{
		src:   s,
		rng:   RNG(s.cfg.Seed + 0x9e3779b9 + uint64(tid)<<32),
		total: total,
	}
}

// ReqStream is one client's deterministic request sequence.
type ReqStream struct {
	src   *ReqSource
	rng   RNG
	i     int
	total int
}

// Next draws the stream's next request. The returned Req's slices are
// freshly allocated and owned by the caller.
func (st *ReqStream) Next() Req {
	cfg := &st.src.cfg
	m := cfg.Mix
	roll := int(st.rng.Next() % 100)
	var kind ReqKind
	switch {
	case roll < m.PointPct:
		kind = ReqPoint
	case roll < m.PointPct+m.MultiGetPct:
		kind = ReqMultiGet
	case roll < m.PointPct+m.MultiGetPct+m.MultiInsertPct:
		kind = ReqMultiInsert
	case roll < m.PointPct+m.MultiGetPct+m.MultiInsertPct+m.MultiDeletePct:
		kind = ReqMultiDelete
	case roll < m.PointPct+m.MultiGetPct+m.MultiInsertPct+m.MultiDeletePct+m.RangeScanPct:
		kind = ReqRangeScan
	default:
		kind = ReqRangeCount
	}
	req := Req{Kind: kind}
	switch kind {
	case ReqPoint:
		req.Ops = make([]Op, cfg.BatchSize)
		req.Keys = make([]int64, cfg.BatchSize)
		for i := range req.Keys {
			opRoll := int(st.rng.Next() % 100)
			switch {
			case opRoll < cfg.OpMix.ContainsPct:
				req.Ops[i] = OpContains
			case opRoll < cfg.OpMix.ContainsPct+cfg.OpMix.InsertPct:
				req.Ops[i] = OpInsert
			default:
				req.Ops[i] = OpDelete
			}
			req.Keys[i] = st.src.dist.Key(&st.rng, st.i, st.total)
		}
	case ReqMultiGet, ReqMultiInsert, ReqMultiDelete:
		req.Keys = make([]int64, cfg.MultiSize)
		for i := range req.Keys {
			req.Keys[i] = st.src.dist.Key(&st.rng, st.i, st.total)
		}
	case ReqRangeScan, ReqRangeCount:
		// Anchor the interval at a distribution-drawn key so range traffic
		// concentrates where point traffic does (a zipfian-hot region gets
		// zipfian-hot scans), clamped inside the universe.
		lo := st.src.dist.Key(&st.rng, st.i, st.total)
		if max := int64(cfg.KeyRange - cfg.RangeSpan); lo > max {
			lo = max
		}
		if lo < 0 {
			lo = 0
		}
		req.Lo, req.Hi = lo, lo+int64(cfg.RangeSpan)
	}
	st.i++
	return req
}
