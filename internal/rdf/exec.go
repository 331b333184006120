package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// This file implements the compiled, slot-based, streaming BGP executor
// that replaced the map-based nested-loop evaluator in query.go (which is
// retained as the reference oracle for differential testing).
//
// A BGPPlan is compiled once per (query, store version): variables are
// resolved to integer slots and constant terms to dictionary IDs, join
// order is chosen from real index cardinalities (range-size probes on the
// SPO/POS/OSP orderings plus per-predicate distinct-value statistics),
// and caller-supplied row predicates (FILTERs) are attached to the
// earliest step that binds their variables. Execution is depth-first and
// push-based: one scratch Row is reused for the whole run, rows stream to
// the emit callback (which can stop the pipeline, e.g. for LIMIT), and
// steps whose probe side shares the stream's sort order run as merge
// joins over a sorted index segment instead of per-row binary searches.

// Row is a slot-addressed solution row: Row[slot] holds the dictionary ID
// bound to that slot, or NoID while the slot is unbound. Rows passed to
// emit callbacks are reused by the executor; consumers that retain them
// must copy (see RowArena).
type Row []ID

// RowArena allocates row copies from large shared blocks, replacing the
// per-row map clones of the legacy evaluator with one bulk allocation per
// few thousand rows. The zero value is not usable; call NewRowArena.
type RowArena struct {
	width int
	block []ID
}

// arenaRows is the number of rows carved from one block.
const arenaRows = 1024

// NewRowArena returns an arena producing rows of the given slot width.
func NewRowArena(width int) *RowArena {
	if width < 1 {
		width = 1
	}
	return &RowArena{width: width}
}

// Copy returns a stable copy of r drawn from the arena.
func (a *RowArena) Copy(r Row) Row {
	if len(a.block)+a.width > cap(a.block) {
		// Previously returned rows keep their old backing block alive;
		// only the arena moves on to a fresh one.
		a.block = make([]ID, 0, a.width*arenaRows)
	}
	n := len(a.block)
	a.block = append(a.block, r...)
	return a.block[n:len(a.block):len(a.block)]
}

// PlanFilter is a row predicate the planner pushes down to the earliest
// step that binds every slot in Slots. Pred must return whether the row
// survives; Label is used by Explain.
type PlanFilter struct {
	Slots []int
	Pred  func(Row) bool
	Label string
}

// PlanProbe is a variable-variable join constraint backed by an external
// index (e.g. the geostore's R-tree): once one of its two slots is bound
// by the pipeline, the planner inserts a probe step that calls
// Candidates to generate the IDs for the other slot, replacing the
// cartesian enumeration a plain filter would require. If pattern steps
// bind both slots before a probe step could run, the probe degrades to a
// pushed filter over Check.
type PlanProbe struct {
	SlotA, SlotB int
	// Candidates streams candidate IDs for the unbound slot given the
	// bound slot's ID; aBound reports whether SlotA is the bound side.
	// Implementations must yield only IDs that satisfy the join predicate
	// exactly (the executor does not re-check), and must stop when yield
	// returns false.
	Candidates func(bound ID, aBound bool, yield func(ID) bool)
	// Check tests the join predicate with both sides bound.
	Check func(a, b ID) bool
	// Label names the join for Explain.
	Label string
}

// BGPOptions tunes PlanBGP for seeded evaluation.
type BGPOptions struct {
	// SeedSlots lists slots pre-bound in every seed row passed to Run.
	SeedSlots []int
	// SortedSlot, when >= 0, promises that seed rows will be sorted
	// ascending by that slot's ID, enabling merge joins against it.
	SortedSlot int
	// Filters are pushed down to the earliest step that binds them;
	// filters fully bound by the seeds run once per seed row.
	Filters []PlanFilter
	// Probes are index-backed variable-variable join constraints; each
	// becomes a candidate-generating step as soon as one side is bound.
	Probes []PlanProbe
}

// refKind classifies one triple-pattern position at a given plan step.
type refKind uint8

const (
	refConst refKind = iota // concrete term, resolved to a dictionary ID
	refBound                // variable bound by an earlier step or seed
	refNew                  // variable first bound at this step
)

type slotRef struct {
	kind refKind
	id   ID  // refConst
	slot int // refBound / refNew
}

// mergeKind selects the merge-join strategy of a step ("none" = index
// nested loop).
type mergeKind uint8

const (
	mergeNone mergeKind = iota
	// mergeS: pattern (?x, p, o) with p, o constant and the stream sorted
	// by ?x. The POS(p,o) segment yields subjects ascending; one cursor
	// advances in lock-step with the stream (a sorted semi-join).
	mergeS
	// mergeOConstS: pattern (s, p, ?x) with s, p constant and the stream
	// sorted by ?x. The SPO(s,p) segment yields objects ascending.
	mergeOConstS
	// mergeONewS: pattern (?new, p, ?x) with p constant and the stream
	// sorted by ?x. The POS(p) segment is sorted (O, S); each stream row
	// consumes its O-group, binding ?new per member.
	mergeONewS
)

// planStep is one compiled join step: a triple pattern, or — when probe
// is non-nil — an index probe that binds one slot from candidates
// generated off another bound slot (the spatial-join step).
type planStep struct {
	tp      TriplePattern
	s, p, o slotRef
	// Intra-pattern repeated-variable constraints (e.g. "?x ?p ?x").
	eqPS, eqOS, eqOP bool
	// filters run immediately after this step binds its slots.
	filters []PlanFilter
	// est is the planner's estimated output rows per upstream row
	// (negative: unknown, e.g. probe steps).
	est float64
	// access describes the chosen access path (for Explain).
	access string

	merge      mergeKind
	mergeSlot  int // stream slot supplying the sorted probe key
	segA, segB ID  // segment range key: POS(p[,o]) or SPO(s,p)

	probe *compiledProbe
}

// compiledProbe is a PlanProbe resolved against the bound set at its
// insertion point: boundSlot feeds Candidates, newSlot receives them.
type compiledProbe struct {
	boundSlot, newSlot int
	aBound             bool
	candidates         func(bound ID, aBound bool, yield func(ID) bool)
}

// BGPPlan is a compiled basic graph pattern ready for streaming
// execution. Compile with Store.PlanBGP; a plan embeds dictionary IDs and
// is only meaningful against the store that compiled it. Plans are
// immutable after compilation and safe for concurrent Run calls.
type BGPPlan struct {
	steps       []planStep
	numSlots    int
	seedFilters []PlanFilter
	// empty marks a pattern whose constant term is absent from the
	// dictionary: the BGP can have no solutions at this store version.
	empty      bool
	sortedSlot int
}

// Empty reports whether the plan was proven unsatisfiable at compile time
// (a constant term is absent from the store's dictionary).
func (p *BGPPlan) Empty() bool { return p.empty }

// NumSlots returns the slot width of rows this plan operates on.
func (p *BGPPlan) NumSlots() int { return p.numSlots }

// --- statistics ---

type predStat struct {
	count     int // triples with this predicate
	distinctS int // distinct subjects under this predicate
	distinctO int // distinct objects under this predicate
}

// execStats summarizes the indexed triples for cardinality estimation.
type execStats struct {
	version   uint64
	total     int
	distinctS int
	distinctP int
	distinctO int
	pred      map[ID]*predStat
}

// queryStats returns up-to-date statistics, rebuilding them (one linear
// pass per index ordering) after mutations.
func (s *Store) queryStats() *execStats {
	s.ensureIndexed()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st := s.stats.Load(); st != nil && st.version == s.version {
		return st
	}
	st := s.buildStatsLocked()
	s.stats.Store(st)
	return st
}

// buildStatsLocked computes execStats; caller holds at least a read lock
// and pending writes are flushed. Predicates are few and triples many,
// so no pass looks a predicate up per triple.
func (s *Store) buildStatsLocked() *execStats {
	st := &execStats{version: s.version, total: len(s.spo), pred: make(map[ID]*predStat)}
	// POS pass: per-predicate counts, distinct predicates, and distinct
	// (P,O) pairs per predicate. A predicate's triples are contiguous, so
	// its entry is created once per run.
	var ps *predStat
	var prevP, prevO ID
	for i, t := range s.pos {
		if i == 0 || t.P != prevP {
			ps = &predStat{}
			st.pred[t.P] = ps
			st.distinctP++
		}
		ps.count++
		if i == 0 || t.P != prevP || t.O != prevO {
			ps.distinctO++
		}
		prevP, prevO = t.P, t.O
	}
	// SPO pass: distinct subjects, and distinct (S,P) pairs per predicate:
	// its triples minus those repeating their predecessor's (S,P), so only
	// a multi-valued (S,P) run resolves its predicate, once.
	for _, ps := range st.pred {
		ps.distinctS = ps.count
	}
	var prevS ID
	for i, t := range s.spo {
		switch {
		case i == 0 || t.S != prevS:
			st.distinctS++
			ps = nil
		case t.P != prevP:
			ps = nil
		default:
			if ps == nil {
				ps = st.pred[t.P]
			}
			ps.distinctS--
		}
		prevS, prevP = t.S, t.P
	}
	// OSP pass: distinct objects.
	for i, t := range s.osp {
		if i == 0 || t.O != prevO {
			st.distinctO++
		}
		prevO = t.O
	}
	return st
}

// --- range probes ---

// rangeBounds returns the half-open [lo, hi) index range of keys in
// [loKey, hiKey) under the ordering less.
func rangeBounds(idx []EncTriple, less func(a, b EncTriple) bool, loKey, hiKey EncTriple) (int, int) {
	lo := sort.Search(len(idx), func(i int) bool { return !less(idx[i], loKey) })
	hi := sort.Search(len(idx), func(i int) bool { return !less(idx[i], hiKey) })
	return lo, hi
}

// countRangeLocked returns the exact number of indexed triples matching
// the constant positions of a pattern (NoID = wildcard). Every constant
// combination is a prefix of one of the three orderings, so the count is
// two binary searches. Caller holds the read lock with pending flushed.
func (s *Store) countRangeLocked(sub, pred, obj ID) int {
	var lo, hi int
	switch {
	case sub != NoID && pred != NoID && obj != NoID:
		lo, hi = rangeBounds(s.spo, lessSPO, EncTriple{sub, pred, obj}, EncTriple{sub, pred, obj + 1})
	case sub != NoID && pred != NoID:
		lo, hi = rangeBounds(s.spo, lessSPO, EncTriple{S: sub, P: pred}, EncTriple{S: sub, P: pred + 1})
	case sub != NoID && obj != NoID:
		lo, hi = rangeBounds(s.osp, lessOSP, EncTriple{S: sub, O: obj}, EncTriple{S: sub + 1, O: obj})
	case sub != NoID:
		lo, hi = rangeBounds(s.spo, lessSPO, EncTriple{S: sub}, EncTriple{S: sub + 1})
	case pred != NoID && obj != NoID:
		lo, hi = rangeBounds(s.pos, lessPOS, EncTriple{P: pred, O: obj}, EncTriple{P: pred, O: obj + 1})
	case pred != NoID:
		lo, hi = rangeBounds(s.pos, lessPOS, EncTriple{P: pred}, EncTriple{P: pred + 1})
	case obj != NoID:
		lo, hi = rangeBounds(s.osp, lessOSP, EncTriple{O: obj}, EncTriple{O: obj + 1})
	default:
		return len(s.spo)
	}
	return hi - lo
}

// posRangeLocked returns the POS segment for predicate p (and object o
// when o != NoID); spoRangeLocked the SPO segment for (sub, p).
func (s *Store) posRangeLocked(p, o ID) []EncTriple {
	var lo, hi int
	if o != NoID {
		lo, hi = rangeBounds(s.pos, lessPOS, EncTriple{P: p, O: o}, EncTriple{P: p, O: o + 1})
	} else {
		lo, hi = rangeBounds(s.pos, lessPOS, EncTriple{P: p}, EncTriple{P: p + 1})
	}
	return s.pos[lo:hi]
}

func (s *Store) spoRangeLocked(sub, p ID) []EncTriple {
	lo, hi := rangeBounds(s.spo, lessSPO, EncTriple{S: sub, P: p}, EncTriple{S: sub, P: p + 1})
	return s.spo[lo:hi]
}

// --- planning ---

// PlanBGP compiles the patterns into a streaming execution plan. slots
// maps every pattern variable to its slot index; numSlots is the row
// width (callers may reserve extra slots). Join order is greedy by
// estimated cardinality: exact range-size probes over the constant
// positions, divided by distinct-value statistics for join-bound
// positions.
func (s *Store) PlanBGP(patterns []TriplePattern, slots map[string]int, numSlots int, opt BGPOptions) *BGPPlan {
	stats := s.queryStats()
	s.ensureIndexed()
	s.mu.RLock()
	defer s.mu.RUnlock()

	plan := &BGPPlan{numSlots: numSlots, sortedSlot: -1}
	bound := make(map[int]bool, numSlots)
	for _, sl := range opt.SeedSlots {
		bound[sl] = true
	}
	seeded := len(opt.SeedSlots) > 0
	sorted := -1
	if seeded && opt.SortedSlot >= 0 {
		sorted = opt.SortedSlot
	}

	// Filters fully bound by the seeds run once per seed row.
	pending := append([]PlanFilter(nil), opt.Filters...)
	pending = plan.attachReady(pending, bound, func(f PlanFilter) {
		plan.seedFilters = append(plan.seedFilters, f)
	})

	// attachFilter pushes a filter to the latest existing step (or the
	// seed stage when no step exists yet).
	attachFilter := func(f PlanFilter) {
		if len(plan.steps) == 0 {
			plan.seedFilters = append(plan.seedFilters, f)
		} else {
			last := &plan.steps[len(plan.steps)-1]
			last.filters = append(last.filters, f)
		}
	}

	// tryProbes fires every probe whose sides just became reachable: one
	// side bound inserts a candidate-generating probe step (binding the
	// other side), both sides bound degrades to an exact-check filter.
	// Loops because a probe's new binding can enable another probe.
	pendingProbes := append([]PlanProbe(nil), opt.Probes...)
	tryProbes := func() {
		for {
			progressed := false
			rest := pendingProbes[:0]
			for _, pr := range pendingProbes {
				aB, bB := bound[pr.SlotA], bound[pr.SlotB]
				if !aB && !bB {
					rest = append(rest, pr)
					continue
				}
				progressed = true
				if aB && bB {
					pr := pr
					attachFilter(PlanFilter{
						Slots: []int{pr.SlotA, pr.SlotB},
						Pred:  func(row Row) bool { return pr.Check(row[pr.SlotA], row[pr.SlotB]) },
						Label: pr.Label + " (both sides bound: exact check)",
					})
					continue
				}
				cp := &compiledProbe{candidates: pr.Candidates, aBound: aB}
				if aB {
					cp.boundSlot, cp.newSlot = pr.SlotA, pr.SlotB
				} else {
					cp.boundSlot, cp.newSlot = pr.SlotB, pr.SlotA
				}
				bound[cp.newSlot] = true
				step := planStep{probe: cp, est: -1, access: pr.Label}
				pending = plan.attachReady(pending, bound, func(f PlanFilter) {
					step.filters = append(step.filters, f)
				})
				plan.steps = append(plan.steps, step)
			}
			pendingProbes = rest
			if !progressed {
				return
			}
		}
	}
	tryProbes()

	remaining := append([]TriplePattern(nil), patterns...)
	for len(remaining) > 0 {
		best, bestEst := 0, 0.0
		for i, tp := range remaining {
			est := s.estimateLocked(tp, slots, bound, stats)
			if i == 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		tp := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		if bestEst == 0 {
			// A constant term is absent from the dictionary: no pattern
			// ordering can produce solutions.
			plan.empty = true
			return plan
		}

		step := s.compileStep(tp, slots, bound, sorted)
		step.est = bestEst
		if !seeded && len(plan.steps) == 0 {
			// The first scan of an unseeded run defines the stream order.
			sorted = step.scanSortSlot()
		}
		// Nested-loop extension and merges preserve the outer order, so
		// sortedness persists across subsequent steps.
		for _, r := range []slotRef{step.s, step.p, step.o} {
			if r.kind == refNew {
				bound[r.slot] = true
			}
		}
		pending = plan.attachReady(pending, bound, func(f PlanFilter) {
			step.filters = append(step.filters, f)
		})
		plan.steps = append(plan.steps, step)
		tryProbes()
	}
	// Filters never fully bound (a variable outside the BGP) reject every
	// row, matching the legacy evaluator's unbound-variable semantics.
	// Probes left with neither side bound join the same fate: their
	// variables are outside the BGP, where legacy evaluation errors (and
	// therefore rejects) on every row.
	for _, pr := range pendingProbes {
		attachFilter(PlanFilter{
			Pred:  func(Row) bool { return false },
			Label: pr.Label + " (unbound: rejects all)",
		})
	}
	for _, f := range pending {
		reject := f
		reject.Pred = func(Row) bool { return false }
		attachFilter(reject)
	}
	plan.sortedSlot = sorted
	return plan
}

// attachReady moves filters whose slots are all bound to attach, keeping
// declaration order, and returns the still-pending remainder.
func (p *BGPPlan) attachReady(pending []PlanFilter, bound map[int]bool, attach func(PlanFilter)) []PlanFilter {
	rest := pending[:0]
	for _, f := range pending {
		ready := true
		for _, sl := range f.Slots {
			if !bound[sl] {
				ready = false
				break
			}
		}
		if ready {
			attach(f)
		} else {
			rest = append(rest, f)
		}
	}
	return rest
}

// estimateLocked estimates the rows this pattern yields per upstream row
// given the already-bound slots. The base is an exact range count over
// the pattern's constant positions; each join-bound position divides it
// by the matching distinct-value statistic.
func (s *Store) estimateLocked(tp TriplePattern, slots map[string]int, bound map[int]bool, stats *execStats) float64 {
	var cs, cp, co ID // constants (NoID = not constant)
	var bs, bp, bo bool
	resolve := func(p PatternTerm, c *ID, b *bool) bool {
		if p.IsVar() {
			*b = bound[slots[p.Var]]
			return true
		}
		id, ok := s.dict.Lookup(p.Term)
		if !ok {
			return false
		}
		*c = id
		return true
	}
	if !resolve(tp.S, &cs, &bs) || !resolve(tp.P, &cp, &bp) || !resolve(tp.O, &co, &bo) {
		return 0
	}
	est := float64(s.countRangeLocked(cs, cp, co))
	if est == 0 {
		// An empty range is as prunable as a missing constant, but only
		// at this store version; keep it nonzero-cost so planning
		// continues (the scan simply yields nothing).
		return 0.001
	}
	div := func(n int) {
		if n > 1 {
			est /= float64(n)
		}
	}
	ps := stats.pred[cp] // nil when P is not constant
	if bs {
		if cp != NoID && ps != nil {
			div(ps.distinctS)
		} else {
			div(stats.distinctS)
		}
	}
	if bo {
		if cp != NoID && ps != nil {
			div(ps.distinctO)
		} else {
			div(stats.distinctO)
		}
	}
	if bp {
		div(stats.distinctP)
	}
	if est < 0.001 {
		est = 0.001
	}
	return est
}

// compileStep resolves the pattern's positions against the current bound
// set and selects the access path, including merge joins when the probe
// side shares the stream's sort order.
func (s *Store) compileStep(tp TriplePattern, slots map[string]int, bound map[int]bool, sorted int) planStep {
	step := planStep{tp: tp}
	seen := map[string]int{} // var -> position (0=S 1=P 2=O) within this pattern
	compile := func(p PatternTerm, pos int) slotRef {
		if !p.IsVar() {
			id, _ := s.dict.Lookup(p.Term) // presence checked by estimate
			return slotRef{kind: refConst, id: id}
		}
		sl := slots[p.Var]
		if prev, dup := seen[p.Var]; dup {
			// Repeated variable inside one pattern: the first occurrence
			// binds, later ones constrain.
			switch {
			case pos == 1 && prev == 0:
				step.eqPS = true
			case pos == 2 && prev == 0:
				step.eqOS = true
			case pos == 2 && prev == 1:
				step.eqOP = true
			}
			if bound[sl] {
				return slotRef{kind: refBound, slot: sl}
			}
			// First occurrence already returns refNew; this one only
			// constrains, so treat it as unbound for scanning.
			return slotRef{kind: refNew, slot: sl}
		}
		seen[p.Var] = pos
		if bound[sl] {
			return slotRef{kind: refBound, slot: sl}
		}
		return slotRef{kind: refNew, slot: sl}
	}
	step.s = compile(tp.S, 0)
	step.p = compile(tp.P, 1)
	step.o = compile(tp.O, 2)

	noDup := !step.eqPS && !step.eqOS && !step.eqOP
	if sorted >= 0 && noDup && step.p.kind == refConst {
		switch {
		case step.s.kind == refBound && step.s.slot == sorted &&
			step.o.kind == refConst:
			step.merge, step.mergeSlot = mergeS, sorted
			step.segA, step.segB = step.p.id, step.o.id
			step.access = "merge POS(p,o) on ?" + tp.S.Var
			return step
		case step.o.kind == refBound && step.o.slot == sorted &&
			step.s.kind == refConst:
			step.merge, step.mergeSlot = mergeOConstS, sorted
			step.segA, step.segB = step.s.id, step.p.id
			step.access = "merge SPO(s,p) on ?" + tp.O.Var
			return step
		case step.o.kind == refBound && step.o.slot == sorted &&
			step.s.kind == refNew:
			step.merge, step.mergeSlot = mergeONewS, sorted
			step.segA = step.p.id
			step.access = "merge POS(p) on ?" + tp.O.Var
			return step
		}
	}
	step.access = step.scanAccess()
	return step
}

// scanAccess names the index the nested-loop scan will use (mirrors the
// dispatch in matchLocked, with bound variables acting as constants).
func (st *planStep) scanAccess() string {
	has := func(r slotRef) bool { return r.kind != refNew }
	switch {
	case has(st.s):
		return "scan SPO"
	case has(st.p):
		return "scan POS"
	case has(st.o):
		return "scan OSP"
	default:
		return "scan full"
	}
}

// scanSortSlot returns the slot the step's scan emits in ascending order
// (the primary free variable of its access path), or -1.
func (st *planStep) scanSortSlot() int {
	newSlot := func(r slotRef) int {
		if r.kind == refNew {
			return r.slot
		}
		return -1
	}
	has := func(r slotRef) bool { return r.kind != refNew }
	switch {
	case has(st.s):
		// SPO range on S (and P when bound): primary free position.
		if has(st.p) {
			return newSlot(st.o)
		}
		return newSlot(st.p)
	case has(st.p):
		if has(st.o) {
			return newSlot(st.s) // POS(p,o): subjects ascending
		}
		return newSlot(st.o) // POS(p): objects ascending
	case has(st.o):
		return newSlot(st.s) // OSP(o): subjects ascending
	default:
		return newSlot(st.s) // full SPO scan: subjects ascending
	}
}

// Explain renders one line per step: join order, access path, estimated
// cardinality and pushed filters.
func (p *BGPPlan) Explain() []string {
	if p.empty {
		return []string{"empty: a constant term is absent from the store"}
	}
	var out []string
	for _, f := range p.seedFilters {
		out = append(out, fmt.Sprintf("seed filter: %s", f.Label))
	}
	for i, st := range p.steps {
		var line string
		if st.probe != nil {
			line = fmt.Sprintf("step %d: %s", i+1, st.access)
		} else {
			line = fmt.Sprintf("step %d: %s  [%s, est %.3g]", i+1, strings.TrimSuffix(st.tp.String(), " ."), st.access, st.est)
		}
		out = append(out, line)
		for _, f := range st.filters {
			out = append(out, fmt.Sprintf("  pushed filter: %s", f.Label))
		}
	}
	return out
}

// --- execution ---

// execState holds the per-run mutable state (merge cursors and resolved
// segments), so a BGPPlan itself stays immutable and shareable.
type execState struct {
	s       *Store
	plan    *BGPPlan
	cursors []int
	segs    [][]EncTriple
	emit    func(Row) bool

	// cancel, when non-nil (parallel runs), is polled every
	// parCancelRows pipeline extensions — scans, probes and merge-group
	// bindings, not just final emits — so even a morsel whose explosion
	// is entirely filtered out observes a timeout promptly. aborted
	// reports the poll fired.
	cancel  func() bool
	tick    int
	aborted *atomic.Bool

	// stats, when non-nil, collects per-step runtime counters (EXPLAIN
	// ANALYZE). Every collection site is a nil-check so the default path
	// stays branch-predictable and allocation-free.
	stats *RunStats
}

// pollCancel returns true when the run's cancellation hook fired; the
// budget keeps the poll off the per-extension hot path.
//
//eevet:hotpath
func (st *execState) pollCancel() bool {
	if st.tick--; st.tick > 0 {
		return false
	}
	st.tick = parCancelRows
	if st.cancel() {
		st.aborted.Store(true)
		return true
	}
	return false
}

// Run executes the plan, emitting every solution row to emit until it
// returns false. seeds provides pre-bound rows (nil means one empty
// row); seed rows must be numSlots wide and, when the plan was compiled
// with SortedSlot, sorted ascending by that slot. The emitted Row is
// reused between calls — retain with RowArena.Copy. Run holds the
// store's read lock for its whole duration; emit and filter callbacks
// must not mutate the store.
func (p *BGPPlan) Run(s *Store, seeds []Row, emit func(Row) bool) {
	p.RunProfiled(s, seeds, nil, emit)
}

// RunProfiled is Run with an optional runtime-statistics sink: when stats
// is non-nil (size it with NewRunStats) the executor collects per-step
// rows-in, matches, filter drops and inclusive elapsed time. With a nil
// sink the run is identical to Run.
func (p *BGPPlan) RunProfiled(s *Store, seeds []Row, stats *RunStats, emit func(Row) bool) {
	if p.empty {
		return
	}
	s.ensureIndexed()
	s.mu.RLock()
	defer s.mu.RUnlock()

	st := &execState{s: s, plan: p, emit: emit, stats: stats}
	if st.segs = p.resolveSegsLocked(s); st.segs != nil {
		st.cursors = make([]int, len(p.steps))
	}

	row := make(Row, p.numSlots)
	if seeds == nil {
		// Filters with no slot dependencies (constant or unsatisfiable
		// expressions) attach to the seed stage; apply them to the single
		// empty row too.
		if stats != nil {
			stats.SeedRows++
		}
		for _, f := range p.seedFilters {
			if !f.Pred(row) {
				if stats != nil {
					stats.SeedDrops++
				}
				return
			}
		}
		st.run(0, row)
		return
	}
seedLoop:
	for _, seed := range seeds {
		copy(row, seed)
		if stats != nil {
			stats.SeedRows++
		}
		for _, f := range p.seedFilters {
			if !f.Pred(row) {
				if stats != nil {
					stats.SeedDrops++
				}
				continue seedLoop
			}
		}
		if !st.run(0, row) {
			return
		}
	}
}

// run executes steps[i:] against row; false aborts the whole pipeline.
//
//eevet:hotpath
func (st *execState) run(i int, row Row) bool {
	if i == len(st.plan.steps) {
		if st.stats != nil {
			st.stats.Emitted++
		}
		return st.emit(row)
	}
	if st.stats != nil {
		return st.runInstrumented(i, row)
	}
	return st.dispatch(i, &st.plan.steps[i], row)
}

// runInstrumented wraps dispatch with the per-step counters: one rows-in
// increment and one inclusive clock read pair per invocation. Elapsed
// time is inclusive of downstream steps; profile renderers derive self
// time by subtracting the next step's inclusive total.
func (st *execState) runInstrumented(i int, row Row) bool {
	sr := &st.stats.Steps[i]
	sr.RowsIn++
	start := time.Now()
	ok := st.dispatch(i, &st.plan.steps[i], row)
	sr.ElapsedNs += int64(time.Since(start))
	return ok
}

// dispatch selects the step's access strategy.
//
//eevet:hotpath
func (st *execState) dispatch(i int, step *planStep, row Row) bool {
	if step.probe != nil {
		return st.runProbe(i, step, row)
	}
	switch step.merge {
	case mergeS:
		return st.runMergeS(i, step, row)
	case mergeOConstS, mergeONewS:
		return st.runMergeO(i, step, row)
	}
	return st.runScan(i, step, row)
}

// runProbe executes an index probe step: the external index generates
// exact candidates for the unbound slot from the bound slot's ID, and
// each candidate extends the row depth-first (preserving the stream's
// outer sort order, like a nested-loop extension).
//
//eevet:hotpath
func (st *execState) runProbe(i int, step *planStep, row Row) bool {
	pr := step.probe
	ok := true
	pr.candidates(row[pr.boundSlot], pr.aBound, func(id ID) bool {
		if st.cancel != nil && st.pollCancel() {
			ok = false
			return false
		}
		if st.stats != nil {
			st.stats.Steps[i].Matches++
		}
		row[pr.newSlot] = id
		for _, f := range step.filters {
			if !f.Pred(row) {
				if st.stats != nil {
					st.stats.Steps[i].FilterDrops++
				}
				return true
			}
		}
		if !st.run(i+1, row) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

//eevet:hotpath
func resolveRef(r slotRef, row Row) ID {
	switch r.kind {
	case refConst:
		return r.id
	case refBound:
		return row[r.slot]
	default:
		return NoID
	}
}

//eevet:hotpath
func (st *execState) runScan(i int, step *planStep, row Row) bool {
	es := resolveRef(step.s, row)
	ep := resolveRef(step.p, row)
	eo := resolveRef(step.o, row)
	ok := true
	st.s.matchLocked(es, ep, eo, func(t EncTriple) bool {
		if st.cancel != nil && st.pollCancel() {
			ok = false
			return false
		}
		if step.eqPS && t.P != t.S {
			return true
		}
		if step.eqOS && t.O != t.S {
			return true
		}
		if step.eqOP && t.O != t.P {
			return true
		}
		if st.stats != nil {
			st.stats.Steps[i].Matches++
		}
		if step.s.kind == refNew {
			row[step.s.slot] = t.S
		}
		if step.p.kind == refNew {
			row[step.p.slot] = t.P
		}
		if step.o.kind == refNew {
			row[step.o.slot] = t.O
		}
		for _, f := range step.filters {
			if !f.Pred(row) {
				if st.stats != nil {
					st.stats.Steps[i].FilterDrops++
				}
				return true
			}
		}
		if !st.run(i+1, row) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// mergeKey is the key a merge segment is sorted by: the object for the
// mergeO kinds, the subject for mergeS.
//
//eevet:hotpath
func mergeKey(t EncTriple, onO bool) ID {
	if onO {
		return t.O
	}
	return t.S
}

// seek returns the first position at or after c whose merge key is >= k,
// or len(seg). It gallops: probes c, c+1, c+3, c+7, … until one passes k,
// then binary-searches the last gap, so moving the cursor d entries costs
// O(log d) comparisons — a sparse seed stream no longer walks the
// segment, and a dense one (d ≈ 1) costs what a linear step did.
//
//eevet:hotpath
func seek(seg []EncTriple, c int, k ID, onO bool) int {
	if c >= len(seg) || mergeKey(seg[c], onO) >= k {
		return c
	}
	// Invariant: key(lo) < k, and hi == len(seg) or key(hi) >= k.
	lo, hi := c, c+1
	for step := 1; hi < len(seg) && mergeKey(seg[hi], onO) < k; step <<= 1 {
		lo = hi
		hi = lo + 2*step
	}
	if hi > len(seg) {
		hi = len(seg)
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if mergeKey(seg[mid], onO) < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// runMergeS advances the sorted POS(p,o) subject cursor in lock-step with
// the stream (sorted semi-join: the pattern binds nothing new).
//
//eevet:hotpath
func (st *execState) runMergeS(i int, step *planStep, row Row) bool {
	seg := st.segs[i]
	k := row[step.mergeSlot]
	c := seek(seg, st.cursors[i], k, false)
	st.cursors[i] = c
	if c >= len(seg) {
		// The stream is ascending, so no later row can match either.
		return false
	}
	if seg[c].S != k {
		return true
	}
	if st.stats != nil {
		st.stats.Steps[i].Matches++
	}
	for _, f := range step.filters {
		if !f.Pred(row) {
			if st.stats != nil {
				st.stats.Steps[i].FilterDrops++
			}
			return true
		}
	}
	return st.run(i+1, row)
}

// runMergeO merges on the object: SPO(s,p) when S is constant (binds
// nothing), POS(p) when S is a fresh variable (binds S per group
// member). The cursor rests at the start of the current O-group so
// duplicate stream keys revisit it.
//
//eevet:hotpath
func (st *execState) runMergeO(i int, step *planStep, row Row) bool {
	seg := st.segs[i]
	k := row[step.mergeSlot]
	c := seek(seg, st.cursors[i], k, true)
	st.cursors[i] = c
	if c >= len(seg) {
		return false
	}
	if seg[c].O != k {
		return true
	}
	if step.merge == mergeOConstS {
		if st.stats != nil {
			st.stats.Steps[i].Matches++
		}
		for _, f := range step.filters {
			if !f.Pred(row) {
				if st.stats != nil {
					st.stats.Steps[i].FilterDrops++
				}
				return true
			}
		}
		return st.run(i+1, row)
	}
group:
	for j := c; j < len(seg) && seg[j].O == k; j++ {
		if st.cancel != nil && st.pollCancel() {
			return false
		}
		if st.stats != nil {
			st.stats.Steps[i].Matches++
		}
		row[step.s.slot] = seg[j].S
		for _, f := range step.filters {
			if !f.Pred(row) {
				if st.stats != nil {
					st.stats.Steps[i].FilterDrops++
				}
				continue group
			}
		}
		if !st.run(i+1, row) {
			return false
		}
	}
	return true
}
