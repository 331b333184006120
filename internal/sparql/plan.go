package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// Plan is a query compiled against one store: variables resolved to
// integer slots, constants to dictionary IDs, filters to slot-addressed
// closures pushed down to the earliest pattern that binds them, and the
// basic graph pattern to a streaming rdf.BGPPlan with a cardinality-
// estimated join order. Compile once (plans are cheap but not free — the
// planner probes index range sizes), execute many: a Plan is immutable
// and safe for concurrent Execute calls. Plans embed dictionary IDs, so
// a plan compiled before a store mutation stays correct but may mark
// newly inserted constants as absent; cache plans keyed on the store
// version (see geostore's plan cache).
type Plan struct {
	st *rdf.Store
	q  *Query

	slots    map[string]int
	width    int
	seedSlot int // slot of opt.SeedVar, -1 when unseeded
	bgp      *rdf.BGPPlan

	vars      []string // effective projection (copied, never aliases q.Vars)
	projSlots []int    // slot per projection var, -1 when not in the BGP
	orderSlot int      // slot ordering applies to, -1 = no reordering needed

	// aggregate compilation
	groupSlot int   // slot of GROUP BY var, -1 when ungrouped or unbound
	aggSlots  []int // per aggregate: countStar, countNever, or a slot
	aggregate bool

	parallel int   // intended execution degree (Explain annotation)
	skipped  []int // filter indexes enforced outside the plan (for Explain)
}

const (
	countStar  = -2 // COUNT(*): every row counts
	countNever = -1 // COUNT(?v) with ?v outside the BGP: never bound
)

// Refiner is a pushed-down predicate over a single variable's dictionary
// ID, used by spatially indexed stores to refine R-tree candidates inside
// the pipeline instead of after it.
type Refiner struct {
	Var   string
	Label string
	Pred  func(rdf.ID) bool
}

// JoinProbe wires one variable-variable spatial join into the plan: an
// index-backed candidate generator between two geometry variables. The
// planner inserts a probe step as soon as one side's slot is bound; the
// executor then enumerates exact candidates for the other side instead
// of the cartesian product a plain filter would force.
type JoinProbe struct {
	// VarA and VarB are the two joined variables.
	VarA, VarB string
	// Candidates streams the IDs for the unbound side that satisfy the
	// join predicate exactly, given the bound side's ID (aBound reports
	// whether VarA is the bound side). It must stop when yield returns
	// false.
	Candidates func(bound rdf.ID, aBound bool, yield func(rdf.ID) bool)
	// Check tests the predicate when both sides are already bound.
	Check func(a, b rdf.ID) bool
	// Label names the join in Explain output.
	Label string
}

// PlanOpts tunes compilation for seeded (spatially accelerated)
// evaluation. The zero value compiles a plain plan.
type PlanOpts struct {
	// SeedVar names a variable pre-bound by every seed row.
	SeedVar string
	// SeedsSorted promises seed rows sorted ascending by SeedVar's ID,
	// enabling merge joins against the seed stream.
	SeedsSorted bool
	// SkipFilters marks filter indexes fully enforced by the caller
	// (e.g. exclusive spatial filters answered by the R-tree seed, or
	// exclusive spatial joins answered by an index probe).
	SkipFilters map[int]bool
	// Refiners are extra per-variable predicates pushed into the
	// pipeline at the variable's binding step.
	Refiners []Refiner
	// Probes are index spatial joins between two variables.
	Probes []JoinProbe
	// Parallel is the morsel-driven execution degree the plan's owner
	// intends to run it at (annotated by Explain as workers=N). It does
	// not change the compiled plan — parallelism is an execution-time
	// property (see ExecuteParallelSeeded) — so plan caches keyed on
	// query text and store version stay valid.
	Parallel int
}

// CompilePlan compiles q against st.
func CompilePlan(st *rdf.Store, q *Query, opt PlanOpts) (*Plan, error) {
	p := &Plan{st: st, q: q, slots: map[string]int{}, seedSlot: -1, orderSlot: -1, groupSlot: -1}

	slotOf := func(v string) int {
		if sl, ok := p.slots[v]; ok {
			return sl
		}
		sl := p.width
		p.slots[v] = sl
		p.width++
		return sl
	}
	if opt.SeedVar != "" {
		p.seedSlot = slotOf(opt.SeedVar)
	}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			slotOf(v)
		}
	}

	// Compile filters to slot closures. A filter referencing a variable
	// outside the BGP can never evaluate (unbound-variable error rejects
	// the row in SPARQL semantics), which the planner models as an
	// always-false predicate on the last step.
	var filters []rdf.PlanFilter
	for i, f := range q.Filters {
		if opt.SkipFilters[i] {
			p.skipped = append(p.skipped, i)
			continue
		}
		filters = append(filters, p.compileFilter(f))
	}
	for _, r := range opt.Refiners {
		sl, ok := p.slots[r.Var]
		if !ok {
			// The refined variable is outside the BGP: like the legacy
			// path's missing-binding check, nothing survives.
			pred := func(rdf.Row) bool { return false }
			filters = append(filters, rdf.PlanFilter{Pred: pred, Label: r.Label + " (unbound)"})
			continue
		}
		pred, slot := r.Pred, sl
		filters = append(filters, rdf.PlanFilter{
			Slots: []int{slot},
			//eevet:hotpath
			Pred:  func(row rdf.Row) bool { return pred(row[slot]) },
			Label: r.Label,
		})
	}

	bgpOpt := rdf.BGPOptions{SortedSlot: -1, Filters: filters}
	for _, jp := range opt.Probes {
		slA, okA := p.slots[jp.VarA]
		slB, okB := p.slots[jp.VarB]
		if !okA || !okB {
			// A join variable outside the BGP can never bind: legacy
			// evaluation errors (and rejects) on every row.
			missing := jp.VarA
			if okA {
				missing = jp.VarB
			}
			bgpOpt.Filters = append(bgpOpt.Filters, rdf.PlanFilter{
				Pred:  func(rdf.Row) bool { return false },
				Label: jp.Label + " (?" + missing + " unbound: rejects all)",
			})
			continue
		}
		bgpOpt.Probes = append(bgpOpt.Probes, rdf.PlanProbe{
			SlotA: slA, SlotB: slB,
			Candidates: jp.Candidates,
			Check:      jp.Check,
			Label:      jp.Label,
		})
	}
	if p.seedSlot >= 0 {
		bgpOpt.SeedSlots = []int{p.seedSlot}
		if opt.SeedsSorted {
			bgpOpt.SortedSlot = p.seedSlot
		}
	}
	p.bgp = st.PlanBGP(q.Patterns, p.slots, p.width, bgpOpt)
	p.parallel = opt.Parallel

	p.compileProjection()
	return p, nil
}

// compileProjection resolves the effective projection, aggregates and
// ORDER BY against the slot table.
func (p *Plan) compileProjection() {
	q := p.q
	if len(q.Aggregates) > 0 {
		p.aggregate = true
		if q.GroupBy != "" {
			p.vars = append(p.vars, q.GroupBy)
			if sl, ok := p.slots[q.GroupBy]; ok {
				p.groupSlot = sl
			}
		}
		for _, a := range q.Aggregates {
			p.vars = append(p.vars, a.As)
			switch {
			case a.Var == "":
				p.aggSlots = append(p.aggSlots, countStar)
			default:
				if sl, ok := p.slots[a.Var]; ok {
					p.aggSlots = append(p.aggSlots, sl)
				} else {
					p.aggSlots = append(p.aggSlots, countNever)
				}
			}
		}
		return
	}
	// Defensive copy: q may be shared (parsed once, cached); appending to
	// q.Vars in the SELECT * path could otherwise scribble on it.
	p.vars = append([]string(nil), q.Vars...)
	if q.Star {
		seen := map[string]bool{}
		for _, tp := range q.Patterns {
			for _, v := range tp.Vars() {
				if !seen[v] {
					seen[v] = true
					p.vars = append(p.vars, v)
				}
			}
		}
	}
	p.projSlots = make([]int, len(p.vars))
	inProj := false
	for i, v := range p.vars {
		if sl, ok := p.slots[v]; ok {
			p.projSlots[i] = sl
		} else {
			p.projSlots[i] = -1
		}
		if v == q.OrderBy {
			inProj = true
		}
	}
	// ORDER BY on a variable outside the projection (or outside the BGP)
	// compares empty keys everywhere: a stable no-op the executor skips,
	// which also re-enables the LIMIT short-circuit.
	if q.OrderBy != "" && inProj {
		if sl, ok := p.slots[q.OrderBy]; ok {
			p.orderSlot = sl
		}
	}
}

// SlotOf returns the slot of a variable and whether it exists in the
// plan.
func (p *Plan) SlotOf(v string) (int, bool) {
	sl, ok := p.slots[v]
	return sl, ok
}

// SeedRows builds sorted seed rows binding the plan's SeedVar slot to
// each ID. The ids slice is sorted in place (ascending), satisfying the
// SeedsSorted promise; rows share one backing allocation.
func (p *Plan) SeedRows(ids []rdf.ID) []rdf.Row {
	if p.seedSlot < 0 || len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	backing := make([]rdf.ID, p.width*len(ids))
	rows := make([]rdf.Row, len(ids))
	for i, id := range ids {
		row := backing[i*p.width : (i+1)*p.width : (i+1)*p.width]
		row[p.seedSlot] = id
		rows[i] = row
	}
	return rows
}

// Execute evaluates the plan from the single empty row.
func (p *Plan) Execute() (*Results, error) { return p.ExecuteSeeded(nil) }

// ExecuteSeeded evaluates the plan from the given seed rows (see
// SeedRows). Execution streams: DISTINCT deduplicates on encoded slot
// tuples, LIMIT without ORDER BY stops the pipeline early, aggregates
// fold rows into group counters without materializing solutions, and
// ORDER BY sorts on keys computed once per row.
func (p *Plan) ExecuteSeeded(seeds []rdf.Row) (*Results, error) {
	return p.executeSeededStats(seeds, nil)
}

// executeSeededStats is ExecuteSeeded with an optional executor stats
// sink (the EXPLAIN ANALYZE path; see ExecuteAnalyzed).
func (p *Plan) executeSeededStats(seeds []rdf.Row, stats *rdf.RunStats) (*Results, error) {
	if p.aggregate {
		return p.executeAggregates(seeds, stats)
	}
	q := p.q
	res := &Results{Vars: p.vars}

	var (
		arena    = rdf.NewRowArena(p.width)
		rows     []rdf.Row
		keys     []sortKey
		dedup    map[string]bool
		keyBuf   []byte
		needSort = p.orderSlot >= 0 && q.OrderBy != ""
	)
	if q.Distinct {
		dedup = make(map[string]bool)
		keyBuf = make([]byte, 0, 8*len(p.projSlots))
	}
	limit := q.Limit
	skip := q.Offset

	p.bgp.RunProfiled(p.st, seeds, stats, func(row rdf.Row) bool {
		if q.Distinct {
			keyBuf = p.projKey(keyBuf, row)
			k := string(keyBuf)
			if dedup[k] {
				return true
			}
			dedup[k] = true
		}
		if !needSort && skip > 0 {
			// Streaming OFFSET: skipped (distinct) rows are never
			// materialized, and the LIMIT short-circuit below only counts
			// rows past the offset.
			skip--
			return true
		}
		rows = append(rows, arena.Copy(row))
		if needSort {
			var t rdf.Term
			if id := row[p.orderSlot]; id != rdf.NoID {
				t = p.st.Dict().MustDecode(id)
			}
			keys = append(keys, makeSortKey(t))
		}
		// Without a global sort the limit short-circuits the pipeline.
		return needSort || limit <= 0 || len(rows) < limit
	})

	if needSort {
		perm := make([]int, len(rows))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool {
			if q.OrderDesc {
				return sortKeyLess(keys[perm[j]], keys[perm[i]])
			}
			return sortKeyLess(keys[perm[i]], keys[perm[j]])
		})
		ordered := make([]rdf.Row, len(rows))
		for i, pi := range perm {
			ordered[i] = rows[pi]
		}
		rows = ordered
		// Under ORDER BY the offset can only apply after the global sort.
		if q.Offset > 0 {
			if q.Offset >= len(rows) {
				rows = rows[:0]
			} else {
				rows = rows[q.Offset:]
			}
		}
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}

	dict := p.st.Dict()
	res.Rows = make([]map[string]rdf.Term, 0, len(rows))
	for _, row := range rows {
		m := make(map[string]rdf.Term, len(p.vars))
		for i, v := range p.vars {
			if sl := p.projSlots[i]; sl >= 0 && row[sl] != rdf.NoID {
				m[v] = dict.MustDecode(row[sl])
			}
		}
		res.Rows = append(res.Rows, m)
	}
	return res, nil
}

// executeAggregates folds the solution stream into COUNT groups without
// materializing rows.
func (p *Plan) executeAggregates(seeds []rdf.Row, stats *rdf.RunStats) (*Results, error) {
	q := p.q
	grouped := q.GroupBy != ""
	type group struct{ counts []int }
	groups := map[rdf.ID]*group{}
	var order []rdf.ID

	// A GROUP BY variable outside the BGP never binds; the legacy
	// evaluator skips every row, so no groups form.
	if !grouped || p.groupSlot >= 0 {
		p.bgp.RunProfiled(p.st, seeds, stats, func(row rdf.Row) bool {
			var key rdf.ID
			if grouped {
				key = row[p.groupSlot]
				if key == rdf.NoID {
					return true
				}
			}
			g := groups[key]
			if g == nil {
				g = &group{counts: make([]int, len(q.Aggregates))}
				groups[key] = g
				order = append(order, key)
			}
			for i, sl := range p.aggSlots {
				switch {
				case sl == countStar:
					g.counts[i]++
				case sl == countNever:
					// COUNT(?v) with ?v never bound: contributes nothing.
				case row[sl] != rdf.NoID:
					g.counts[i]++
				}
			}
			return true
		})
	}
	return p.renderAggregates(order, func(k rdf.ID) []int { return groups[k].counts })
}

// renderAggregates builds the decoded aggregate result from per-group
// counters in first-seen order, applying the empty-COUNT zero row,
// ORDER BY and OFFSET/LIMIT. It is shared by the sequential and
// parallel executors so their aggregate output can never diverge.
func (p *Plan) renderAggregates(order []rdf.ID, counts func(rdf.ID) []int) (*Results, error) {
	q := p.q
	grouped := q.GroupBy != ""
	if !grouped && len(order) == 0 {
		// COUNT over the empty solution set is a single zero row.
		zero := make([]int, len(q.Aggregates))
		order = []rdf.ID{rdf.NoID}
		counts = func(rdf.ID) []int { return zero }
	}
	res := &Results{Vars: p.vars}
	dict := p.st.Dict()
	for _, key := range order {
		row := make(map[string]rdf.Term, len(p.vars))
		for i, n := range counts(key) {
			row[q.Aggregates[i].As] = rdf.NewIntLiteral(int64(n))
		}
		if grouped {
			row[q.GroupBy] = dict.MustDecode(key)
		}
		res.Rows = append(res.Rows, row)
	}
	if q.OrderBy != "" {
		sortRows(res.Rows, q.OrderBy, q.OrderDesc)
	}
	applyOffsetLimit(res, q)
	return res, nil
}

// compileFilter compiles a filter expression to a pushed-down row
// predicate. Evaluation errors reject the row (SPARQL semantics).
func (p *Plan) compileFilter(f Expr) rdf.PlanFilter {
	eval, slots, unbound := p.compileExpr(f)
	if unbound != "" {
		return rdf.PlanFilter{
			Pred:  func(rdf.Row) bool { return false },
			Label: f.String() + " (?" + unbound + " unbound: rejects all)",
		}
	}
	return rdf.PlanFilter{
		Slots: slots,
		// The expression tree behind eval may allocate on its error
		// paths, but the per-row dispatch itself must not.
		//eevet:hotpath
		Pred: func(row rdf.Row) bool {
			v, err := eval(row)
			return err == nil && v.Bool()
		},
		Label: f.String(),
	}
}

// exprFn evaluates a compiled expression against a slot row.
type exprFn func(rdf.Row) (Value, error)

// compileExpr lowers an expression to a closure over slot rows,
// resolving variables to slots and pre-evaluating constants (including
// parsing constant WKT geometry arguments once instead of per row). It
// returns the distinct slots the expression reads; unbound names the
// first variable without a slot, which makes the filter unsatisfiable.
func (p *Plan) compileExpr(e Expr) (fn exprFn, slots []int, unbound string) {
	seen := map[int]bool{}
	var walk func(Expr) exprFn
	var missing string
	addSlot := func(sl int) {
		if !seen[sl] {
			seen[sl] = true
			slots = append(slots, sl)
		}
	}
	dict := p.st.Dict()
	walk = func(e Expr) exprFn {
		switch ex := e.(type) {
		case VarExpr:
			sl, ok := p.slots[ex.Name]
			if !ok {
				if missing == "" {
					missing = ex.Name
				}
				return nil
			}
			addSlot(sl)
			return func(row rdf.Row) (Value, error) {
				id := row[sl]
				if id == rdf.NoID {
					return Value{}, fmt.Errorf("unbound variable ?%s in FILTER", ex.Name)
				}
				return termValue(dict.MustDecode(id)), nil
			}
		case ConstExpr:
			v := termValue(ex.Term)
			return func(rdf.Row) (Value, error) { return v, nil }
		case NotExpr:
			inner := walk(ex.E)
			if inner == nil {
				return nil
			}
			return func(row rdf.Row) (Value, error) {
				v, err := inner(row)
				if err != nil {
					return Value{}, err
				}
				return boolValue(!v.Bool()), nil
			}
		case AndExpr:
			l, r := walk(ex.L), walk(ex.R)
			if l == nil || r == nil {
				return nil
			}
			return func(row rdf.Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Value{}, err
				}
				if !lv.Bool() {
					return boolValue(false), nil
				}
				rv, err := r(row)
				if err != nil {
					return Value{}, err
				}
				return boolValue(rv.Bool()), nil
			}
		case OrExpr:
			l, r := walk(ex.L), walk(ex.R)
			if l == nil || r == nil {
				return nil
			}
			return func(row rdf.Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Value{}, err
				}
				if lv.Bool() {
					return boolValue(true), nil
				}
				rv, err := r(row)
				if err != nil {
					return Value{}, err
				}
				return boolValue(rv.Bool()), nil
			}
		case CmpExpr:
			l, r := walk(ex.L), walk(ex.R)
			if l == nil || r == nil {
				return nil
			}
			op := ex.Op
			return func(row rdf.Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Value{}, err
				}
				rv, err := r(row)
				if err != nil {
					return Value{}, err
				}
				return compare(op, lv, rv)
			}
		case FuncExpr:
			return p.compileFunc(ex, walk)
		default:
			err := fmt.Errorf("unsupported expression %T", e)
			return func(rdf.Row) (Value, error) { return Value{}, err }
		}
	}
	fn = walk(e)
	if missing != "" {
		return nil, nil, missing
	}
	return fn, slots, ""
}

// compileFunc lowers a GeoSPARQL function call. Constant geometry
// arguments are parsed from WKT once at compile time instead of once per
// candidate row.
func (p *Plan) compileFunc(ex FuncExpr, walk func(Expr) exprFn) exprFn {
	fail := func(err error) exprFn {
		return func(rdf.Row) (Value, error) { return Value{}, err }
	}
	switch ex.Name {
	case FnSfIntersects, FnSfContains, FnSfWithin, FnDistance:
	default:
		return fail(fmt.Errorf("unknown function <%s>", ex.Name))
	}
	if len(ex.Args) != 2 {
		return fail(fmt.Errorf("%s needs 2 arguments, got %d", ex.Name, len(ex.Args)))
	}
	type geomFn func(rdf.Row) (geom.Geometry, error)
	compileGeom := func(e Expr, idx int) geomFn {
		if c, ok := e.(ConstExpr); ok && c.Term.Kind == rdf.Literal {
			g, err := geom.ParseWKT(c.Term.Value)
			if err != nil {
				return func(rdf.Row) (geom.Geometry, error) { return nil, err }
			}
			return func(rdf.Row) (geom.Geometry, error) { return g, nil }
		}
		inner := walk(e)
		if inner == nil {
			return nil
		}
		name := ex.Name
		return func(row rdf.Row) (geom.Geometry, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			if v.Term.Kind != rdf.Literal {
				return nil, fmt.Errorf("%s: argument %d is not a geometry literal", name, idx)
			}
			return geom.ParseWKT(v.Term.Value)
		}
	}
	g1, g2 := compileGeom(ex.Args[0], 0), compileGeom(ex.Args[1], 1)
	if g1 == nil || g2 == nil {
		return nil
	}
	name := ex.Name
	return func(row rdf.Row) (Value, error) {
		a, err := g1(row)
		if err != nil {
			return Value{}, err
		}
		b, err := g2(row)
		if err != nil {
			return Value{}, err
		}
		switch name {
		case FnSfIntersects:
			return boolValue(geom.Intersects(a, b)), nil
		case FnSfContains:
			return boolValue(geom.Contains(a, b)), nil
		case FnSfWithin:
			return boolValue(geom.Within(a, b)), nil
		default:
			return numValue(geom.Distance(a, b)), nil
		}
	}
}

// Explain renders the plan for humans: slot table, seeding, join order
// with access paths and estimates, pushed filters, and the projection
// pipeline. It backs the eequery -explain flag.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.q.Canonical())
	names := make([]string, p.width)
	for v, sl := range p.slots {
		names[sl] = "?" + v + "=" + fmt.Sprint(sl)
	}
	fmt.Fprintf(&b, "slots: %s\n", strings.Join(names, " "))
	if p.seedSlot >= 0 {
		fmt.Fprintf(&b, "seed: slot %d (spatial index candidates, sorted)\n", p.seedSlot)
	}
	for _, line := range p.bgp.Explain() {
		b.WriteString(line + "\n")
	}
	for _, i := range p.skipped {
		fmt.Fprintf(&b, "filter #%d enforced by spatial index (skipped)\n", i)
	}
	var mods []string
	if p.q.Distinct {
		mods = append(mods, "DISTINCT on encoded slot tuples")
	}
	if p.aggregate {
		mods = append(mods, "streamed COUNT aggregation")
	}
	if p.q.OrderBy != "" {
		if p.orderSlot >= 0 {
			mods = append(mods, "ORDER BY ?"+p.q.OrderBy+" (precomputed keys)")
		} else {
			mods = append(mods, "ORDER BY ?"+p.q.OrderBy+" (no-op: not projected)")
		}
	}
	if p.q.Offset > 0 {
		if p.orderSlot < 0 && !p.aggregate {
			mods = append(mods, fmt.Sprintf("OFFSET %d (streaming skip)", p.q.Offset))
		} else {
			mods = append(mods, fmt.Sprintf("OFFSET %d", p.q.Offset))
		}
	}
	if p.q.Limit > 0 {
		if p.orderSlot < 0 && !p.aggregate {
			mods = append(mods, fmt.Sprintf("LIMIT %d (streaming short-circuit)", p.q.Limit))
		} else {
			mods = append(mods, fmt.Sprintf("LIMIT %d", p.q.Limit))
		}
	}
	if len(mods) > 0 {
		fmt.Fprintf(&b, "project: %s\n", strings.Join(mods, "; "))
	}
	if p.parallel > 1 {
		fmt.Fprintf(&b, "parallel: workers=%d, split=%s\n",
			p.parallel, p.bgp.ParallelSplit(p.seedSlot >= 0))
	}
	return b.String()
}

// --- sort keys (satellite fix: ORDER BY used to re-parse numeric
// literals on every comparison) ---

// sortKey is the per-row ORDER BY key, computed once: the numeric value
// when the term parses as a number, else its lexical value.
type sortKey struct {
	num   float64
	isNum bool
	str   string
}

func makeSortKey(t rdf.Term) sortKey {
	if f, err := t.Float(); err == nil {
		return sortKey{num: f, isNum: true, str: t.Value}
	}
	return sortKey{str: t.Value}
}

// sortKeyLess mirrors termLess: numeric when both sides are numeric,
// lexical otherwise.
func sortKeyLess(a, b sortKey) bool {
	if a.isNum && b.isNum {
		return a.num < b.num
	}
	return a.str < b.str
}

// sortRows stably sorts decoded result rows by the named variable with
// one key computation per row. Shared by the projection paths.
func sortRows(rows []map[string]rdf.Term, by string, desc bool) {
	keys := make([]sortKey, len(rows))
	for i, r := range rows {
		keys[i] = makeSortKey(r[by])
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		if desc {
			return sortKeyLess(keys[perm[j]], keys[perm[i]])
		}
		return sortKeyLess(keys[perm[i]], keys[perm[j]])
	})
	out := make([]map[string]rdf.Term, len(rows))
	for i, pi := range perm {
		out[i] = rows[pi]
	}
	copy(rows, out)
}
