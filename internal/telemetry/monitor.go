package telemetry

import (
	"sync"
	"sync/atomic"

	"repro/internal/smr"
)

// Domain describes one monitored domain (typically one store shard) for
// the online classifier: which scheme currently serves it, what that
// scheme declares, and what "bounded" means for it.
type Domain struct {
	// Scheme is the domain's current reclamation scheme name.
	Scheme string
	// Declared is the scheme's claimed RobustnessClass.
	Declared smr.RobustnessClass
	// Budget frames the domain's fit (workers × retire-scan threshold).
	Budget Budget
}

// monitorWindow is the sliding fit window in points. The window is the
// monitor's memory: verdicts describe the last monitorWindow samples,
// not the whole run, which is what lets a migrated shard's fresh
// behaviour replace its old scheme's record.
const monitorWindow = 256

// Monitor is the online robustness classifier: it consumes sampled
// points as they arrive (wire Observe as the Sampler's OnSample hook)
// and keeps one incremental WindowFit per domain, so a per-shard Verdict
// is readable at any instant mid-run — the evidence feed the adaptive
// controller (internal/adapt) decides on. An Ops regression (shard
// reopened or migrated) resets that domain's window automatically.
type Monitor struct {
	onFlip func(domain int, old, new smr.RobustnessClass, v Verdict)

	mu      sync.Mutex
	domains []Domain
	fits    []*WindowFit
	// class publishes each domain's latest conclusive audited class, plus
	// one (0 = no conclusive reading yet). Observe writes it under mu, so
	// it is also the flip detector's memory; Class reads it lock-free.
	// SetDomain clears it: a fresh incarnation re-baselines.
	class []atomic.Int32
}

// NewMonitor builds a monitor over the given domains; domain i consumes
// the sampler's domain-i points (store shard i under the store.Gauges
// probe convention).
//
// onFlip, when non-nil, fires whenever a domain's *conclusive* audited
// class changes from its previous conclusive reading (the first
// conclusive reading sets the baseline silently). Called from Observe —
// i.e. on the sampler goroutine — outside the monitor's lock; it must be
// cheap and non-blocking. This is how audited-class transitions become
// flight-recorder events with a timestamp, rather than states someone
// has to poll for.
func NewMonitor(onFlip func(domain int, old, new smr.RobustnessClass, v Verdict), domains []Domain) *Monitor {
	m := &Monitor{onFlip: onFlip, domains: append([]Domain(nil), domains...)}
	m.fits = make([]*WindowFit, len(m.domains))
	m.class = make([]atomic.Int32, len(m.domains))
	for i := range m.fits {
		m.fits[i] = NewWindowFit(monitorWindow)
	}
	return m
}

// Domains returns the number of monitored domains.
func (m *Monitor) Domains() int { return len(m.domains) }

// Observe feeds one sampled point into domain i's window. Its signature
// matches the Sampler's OnSample hook. Every push re-fits the window
// (O(1), window.go) and publishes a conclusive audited class for Class;
// a changed conclusive class fires the onFlip hook.
func (m *Monitor) Observe(domain int, p Point) {
	if domain < 0 || domain >= len(m.fits) {
		return
	}
	m.mu.Lock()
	m.fits[domain].Push(p)
	d := m.domains[domain]
	fit := m.fits[domain].Fit(d.Budget)
	fit.Sanitize()
	v := NewVerdict(d.Scheme, d.Declared, fit)
	if v.Inconclusive() {
		m.mu.Unlock()
		return
	}
	cls := v.AuditedClass()
	prev := m.class[domain].Swap(int32(cls) + 1)
	m.mu.Unlock()
	if m.onFlip != nil && prev != 0 && prev != int32(cls)+1 {
		m.onFlip(domain, smr.RobustnessClass(prev-1), cls, v)
	}
}

// Class returns domain i's latest conclusive audited class, and false
// while the domain has none (a fresh or rebound window). It takes no
// lock, so admission paths may read it per request; a nil monitor has
// no classes.
func (m *Monitor) Class(domain int) (smr.RobustnessClass, bool) {
	if m == nil || domain < 0 || domain >= len(m.class) {
		return 0, false
	}
	c := m.class[domain].Load()
	return smr.RobustnessClass(c - 1), c != 0
}

// SetDomain rebinds domain i to a new scheme — called after a live
// migration — and resets its window: the old scheme's evidence does not
// transfer to the new heap.
func (m *Monitor) SetDomain(domain int, scheme string, declared smr.RobustnessClass) {
	if domain < 0 || domain >= len(m.domains) {
		return
	}
	m.mu.Lock()
	m.domains[domain].Scheme = scheme
	m.domains[domain].Declared = declared
	m.fits[domain].Reset()
	m.class[domain].Store(0)
	m.mu.Unlock()
}

// Restarts returns how many window resets (domain incarnations) domain i
// has absorbed, SetDomain rebinds included.
func (m *Monitor) Restarts(domain int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if domain < 0 || domain >= len(m.fits) {
		return 0
	}
	return m.fits[domain].Resets()
}

// Verdict returns domain i's live windowed verdict: the current window's
// fit related to the domain's declared class. Safe to call while the
// sampler keeps observing.
func (m *Monitor) Verdict(domain int) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	if domain < 0 || domain >= len(m.fits) {
		return Verdict{}
	}
	d := m.domains[domain]
	fit := m.fits[domain].Fit(d.Budget)
	fit.Sanitize()
	return NewVerdict(d.Scheme, d.Declared, fit)
}

// Verdicts returns every domain's live verdict.
func (m *Monitor) Verdicts() []Verdict {
	out := make([]Verdict, len(m.fits))
	for i := range out {
		out[i] = m.Verdict(i)
	}
	return out
}
