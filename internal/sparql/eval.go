package sparql

import (
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// Results holds the solutions of a SELECT query.
type Results struct {
	// Vars is the projection in declaration order.
	Vars []string
	// Rows maps variable name to bound term, one map per solution.
	Rows []map[string]rdf.Term
}

// Len returns the number of result rows.
func (r *Results) Len() int { return len(r.Rows) }

// Column returns the terms bound to the named variable across all rows.
func (r *Results) Column(name string) []rdf.Term {
	out := make([]rdf.Term, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[name])
	}
	return out
}

// String renders a compact table for logs and the example programs.
func (r *Results) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Vars, "\t") + "\n")
	for _, row := range r.Rows {
		for i, v := range r.Vars {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(row[v].String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Eval evaluates the query against the store with the compiled
// slot-based streaming executor: one planning pass resolves variables to
// slots and constants to dictionary IDs, pushes filters down to the
// earliest pattern that binds them, and streams flat slot rows through
// the join pipeline. Stores that maintain spatial indexes use their own
// accelerated seeding (see internal/geostore) on top of the same
// executor; callers that evaluate one query repeatedly should compile
// once with CompilePlan and reuse the plan.
func Eval(st *rdf.Store, q *Query) (*Results, error) {
	p, err := CompilePlan(st, q, PlanOpts{})
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// EvalLegacy is the original map-based nested-loop evaluator, retained
// as the reference oracle for differential testing of the slot executor
// and as the ModeNaive baseline of the E1/E2 experiments. Filters are
// evaluated by the generic expression evaluator over full bindings, after
// the complete join has been built.
func EvalLegacy(st *rdf.Store, q *Query) (*Results, error) {
	filter := func(s *rdf.Store, b rdf.Binding) bool {
		for _, f := range q.Filters {
			v, err := evalExpr(s, f, b)
			if err != nil {
				// Errors in FILTER mean "solution rejected" in SPARQL
				// semantics.
				return false
			}
			if !v.Bool() {
				return false
			}
		}
		return true
	}
	bindings := st.Solve(q.Patterns, filter)
	res, err := Project(st, q, bindings)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Project applies SELECT projection, DISTINCT, ORDER BY and LIMIT to raw
// bindings, producing decoded result rows.
func Project(st *rdf.Store, q *Query, bindings []rdf.Binding) (*Results, error) {
	if len(q.Aggregates) > 0 {
		return projectAggregates(st, q, bindings)
	}
	// Copy: appending into q.Vars' spare capacity in the SELECT * path
	// could mutate a Query shared across goroutines or cached by text.
	vars := append([]string(nil), q.Vars...)
	if q.Star {
		seen := map[string]bool{}
		for _, p := range q.Patterns {
			for _, v := range p.Vars() {
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
	}
	res := &Results{Vars: vars}
	dedup := map[string]bool{}
	for _, b := range bindings {
		row := make(map[string]rdf.Term, len(vars))
		var key strings.Builder
		for _, v := range vars {
			if id, ok := b[v]; ok {
				row[v] = st.Dict().MustDecode(id)
			}
			if q.Distinct {
				key.WriteString(row[v].String())
				key.WriteByte('\x00')
			}
		}
		if q.Distinct {
			k := key.String()
			if dedup[k] {
				continue
			}
			dedup[k] = true
		}
		res.Rows = append(res.Rows, row)
	}
	if q.OrderBy != "" {
		// sortRows precomputes one key per row instead of re-parsing
		// numeric literals on every comparison.
		sortRows(res.Rows, q.OrderBy, q.OrderDesc)
	}
	applyOffsetLimit(res, q)
	return res, nil
}

// applyOffsetLimit drops the first Offset rows and truncates to Limit
// (solution-modifier order: OFFSET before LIMIT).
func applyOffsetLimit(res *Results, q *Query) {
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = res.Rows[:0]
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
}

// projectAggregates evaluates COUNT aggregates, grouped by GroupBy when
// set, otherwise over one global group.
func projectAggregates(st *rdf.Store, q *Query, bindings []rdf.Binding) (*Results, error) {
	type group struct {
		key    rdf.ID
		counts []int
	}
	var vars []string
	if q.GroupBy != "" {
		vars = append(vars, q.GroupBy)
	}
	for _, a := range q.Aggregates {
		vars = append(vars, a.As)
	}
	res := &Results{Vars: vars}

	groups := map[rdf.ID]*group{}
	var order []rdf.ID
	for _, b := range bindings {
		var key rdf.ID
		if q.GroupBy != "" {
			id, ok := b[q.GroupBy]
			if !ok {
				continue
			}
			key = id
		}
		g, ok := groups[key]
		if !ok {
			g = &group{key: key, counts: make([]int, len(q.Aggregates))}
			groups[key] = g
			order = append(order, key)
		}
		for i, a := range q.Aggregates {
			if a.Var == "" {
				g.counts[i]++
				continue
			}
			if _, bound := b[a.Var]; bound {
				g.counts[i]++
			}
		}
	}
	if q.GroupBy == "" && len(groups) == 0 {
		// COUNT over the empty solution set is a single zero row.
		groups[0] = &group{counts: make([]int, len(q.Aggregates))}
		order = append(order, 0)
	}
	for _, key := range order {
		g := groups[key]
		row := make(map[string]rdf.Term, len(vars))
		if q.GroupBy != "" {
			row[q.GroupBy] = st.Dict().MustDecode(g.key)
		}
		for i, a := range q.Aggregates {
			row[a.As] = rdf.NewIntLiteral(int64(g.counts[i]))
		}
		res.Rows = append(res.Rows, row)
	}
	if q.OrderBy != "" {
		sortRows(res.Rows, q.OrderBy, q.OrderDesc)
	}
	applyOffsetLimit(res, q)
	return res, nil
}

// EvalFilter evaluates a single filter expression to its effective boolean
// value under the binding. It is the hook used by spatially indexed stores
// that plan filters themselves. Errors follow SPARQL semantics: the caller
// should treat an error as "solution rejected".
func EvalFilter(st *rdf.Store, e Expr, b rdf.Binding) (bool, error) {
	v, err := evalExpr(st, e, b)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// Value is the result of evaluating a filter expression: a term, a number,
// or a boolean.
type Value struct {
	Term  rdf.Term
	Num   float64
	IsNum bool
	B     bool
	IsB   bool
}

// Bool coerces the value to boolean (SPARQL effective boolean value).
func (v Value) Bool() bool {
	switch {
	case v.IsB:
		return v.B
	case v.IsNum:
		return v.Num != 0
	default:
		return v.Term.Value != ""
	}
}

func boolValue(b bool) Value   { return Value{B: b, IsB: true} }
func numValue(f float64) Value { return Value{Num: f, IsNum: true} }

// evalExpr evaluates a filter expression under a binding.
func evalExpr(st *rdf.Store, e Expr, b rdf.Binding) (Value, error) {
	switch ex := e.(type) {
	case VarExpr:
		id, ok := b[ex.Name]
		if !ok {
			return Value{}, fmt.Errorf("unbound variable ?%s in FILTER", ex.Name)
		}
		t := st.Dict().MustDecode(id)
		return termValue(t), nil
	case ConstExpr:
		return termValue(ex.Term), nil
	case NotExpr:
		v, err := evalExpr(st, ex.E, b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(!v.Bool()), nil
	case AndExpr:
		l, err := evalExpr(st, ex.L, b)
		if err != nil {
			return Value{}, err
		}
		if !l.Bool() {
			return boolValue(false), nil
		}
		r, err := evalExpr(st, ex.R, b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(r.Bool()), nil
	case OrExpr:
		l, err := evalExpr(st, ex.L, b)
		if err != nil {
			return Value{}, err
		}
		if l.Bool() {
			return boolValue(true), nil
		}
		r, err := evalExpr(st, ex.R, b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(r.Bool()), nil
	case CmpExpr:
		l, err := evalExpr(st, ex.L, b)
		if err != nil {
			return Value{}, err
		}
		r, err := evalExpr(st, ex.R, b)
		if err != nil {
			return Value{}, err
		}
		return compare(ex.Op, l, r)
	case FuncExpr:
		return evalFunc(st, ex, b)
	default:
		return Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

func termValue(t rdf.Term) Value {
	if f, err := t.Float(); err == nil && t.Kind == rdf.Literal && t.Datatype != "" && t.Datatype != rdf.WKTLiteral {
		return Value{Term: t, Num: f, IsNum: true}
	}
	if t.Kind == rdf.Literal && t.Datatype == rdf.XSDBoolean {
		return Value{Term: t, B: t.Value == "true", IsB: true}
	}
	return Value{Term: t}
}

func compare(op CmpOp, l, r Value) (Value, error) {
	if l.IsNum && r.IsNum {
		switch op {
		case OpEq:
			return boolValue(l.Num == r.Num), nil
		case OpNe:
			return boolValue(l.Num != r.Num), nil
		case OpLt:
			return boolValue(l.Num < r.Num), nil
		case OpLe:
			return boolValue(l.Num <= r.Num), nil
		case OpGt:
			return boolValue(l.Num > r.Num), nil
		case OpGe:
			return boolValue(l.Num >= r.Num), nil
		}
	}
	ls, rs := l.Term.Value, r.Term.Value
	switch op {
	case OpEq:
		return boolValue(l.Term == r.Term), nil
	case OpNe:
		return boolValue(l.Term != r.Term), nil
	case OpLt:
		return boolValue(ls < rs), nil
	case OpLe:
		return boolValue(ls <= rs), nil
	case OpGt:
		return boolValue(ls > rs), nil
	case OpGe:
		return boolValue(ls >= rs), nil
	}
	return Value{}, fmt.Errorf("unknown comparison operator %v", op)
}

// evalFunc evaluates a function call. GeoSPARQL simple-feature predicates
// decode WKT geometry literals from their arguments.
func evalFunc(st *rdf.Store, f FuncExpr, b rdf.Binding) (Value, error) {
	geomArg := func(i int) (geom.Geometry, error) {
		v, err := evalExpr(st, f.Args[i], b)
		if err != nil {
			return nil, err
		}
		if v.Term.Kind != rdf.Literal {
			return nil, fmt.Errorf("%s: argument %d is not a geometry literal", f.Name, i)
		}
		return geom.ParseWKT(v.Term.Value)
	}
	switch f.Name {
	case FnSfIntersects, FnSfContains, FnSfWithin:
		if len(f.Args) != 2 {
			return Value{}, fmt.Errorf("%s needs 2 arguments, got %d", f.Name, len(f.Args))
		}
		g1, err := geomArg(0)
		if err != nil {
			return Value{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return Value{}, err
		}
		switch f.Name {
		case FnSfIntersects:
			return boolValue(geom.Intersects(g1, g2)), nil
		case FnSfContains:
			return boolValue(geom.Contains(g1, g2)), nil
		default:
			return boolValue(geom.Within(g1, g2)), nil
		}
	case FnDistance:
		if len(f.Args) != 2 {
			return Value{}, fmt.Errorf("geof:distance needs 2 arguments, got %d", len(f.Args))
		}
		g1, err := geomArg(0)
		if err != nil {
			return Value{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return Value{}, err
		}
		return numValue(geom.Distance(g1, g2)), nil
	default:
		return Value{}, fmt.Errorf("unknown function <%s>", f.Name)
	}
}

// SpatialFilter describes a recognised spatial restriction extracted from
// a query's FILTER expressions: a geof predicate between a geometry
// variable and a constant geometry. Spatially indexed stores use it to
// prune candidates with an R-tree before exact evaluation.
type SpatialFilter struct {
	// Var is the geometry variable name.
	Var string
	// Fn is the GeoSPARQL function IRI.
	Fn string
	// Window is the constant geometry's bounding rectangle.
	Window geom.Rect
	// Geometry is the constant geometry for exact refinement.
	Geometry geom.Geometry
	// FilterIndex is the index into Query.Filters this was extracted from.
	FilterIndex int
	// Exclusive reports that the top-level filter consists solely of this
	// call, so a store that enforces it during index scanning may skip the
	// generic evaluation of that filter entirely.
	Exclusive bool
}

// ExtractSpatialFilters scans the query's filters for accelerable
// geof:sfIntersects/sfWithin/sfContains(?var, constantWKT) calls (either
// argument order). Only top-level and AND-combined conjuncts are
// considered; anything under OR/NOT stays with the generic evaluator.
func ExtractSpatialFilters(q *Query) []SpatialFilter {
	var out []SpatialFilter
	var visit func(e Expr, idx int, exclusive bool)
	visit = func(e Expr, idx int, exclusive bool) {
		switch ex := e.(type) {
		case AndExpr:
			visit(ex.L, idx, false)
			visit(ex.R, idx, false)
		case FuncExpr:
			if ex.Name != FnSfIntersects && ex.Name != FnSfContains && ex.Name != FnSfWithin {
				return
			}
			if len(ex.Args) != 2 {
				return
			}
			v, c, swapped := splitVarConst(ex.Args[0], ex.Args[1])
			if v == "" {
				return
			}
			g, err := geom.ParseWKT(c.Value)
			if err != nil {
				return
			}
			fn := ex.Name
			if swapped {
				// sfContains(const, ?v) is sfWithin(?v, const) and vice
				// versa; sfIntersects is symmetric.
				switch fn {
				case FnSfContains:
					fn = FnSfWithin
				case FnSfWithin:
					fn = FnSfContains
				}
			}
			out = append(out, SpatialFilter{
				Var: v, Fn: fn,
				Window: g.Bounds(), Geometry: g,
				FilterIndex: idx, Exclusive: exclusive,
			})
		}
	}
	for i, f := range q.Filters {
		visit(f, i, true)
	}
	return out
}

// ExprVars returns the distinct variable names referenced anywhere in
// the expression, in first-use order.
func ExprVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch ex := e.(type) {
		case VarExpr:
			if !seen[ex.Name] {
				seen[ex.Name] = true
				out = append(out, ex.Name)
			}
		case NotExpr:
			walk(ex.E)
		case AndExpr:
			walk(ex.L)
			walk(ex.R)
		case OrExpr:
			walk(ex.L)
			walk(ex.R)
		case CmpExpr:
			walk(ex.L)
			walk(ex.R)
		case FuncExpr:
			for _, a := range ex.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// SpatialJoin describes a recognised variable-variable spatial
// restriction: a geof simple-feature predicate between two geometry
// variables, or a distance join geof:distance(?a, ?b) < d. Spatially
// indexed stores accelerate it with an R-tree index spatial join (probe
// with the bound side's MBR, refine exactly) instead of degrading to a
// cartesian scan with per-pair geometry tests.
type SpatialJoin struct {
	// VarA and VarB are the two geometry variables in argument order.
	VarA, VarB string
	// Fn is the GeoSPARQL function IRI (FnDistance for distance joins).
	Fn string
	// Distance is the window-expansion threshold for FnDistance joins.
	Distance float64
	// StrictLess reports a strict (<) distance comparison; false means <=.
	StrictLess bool
	// FilterIndex is the index into Query.Filters this was extracted from.
	FilterIndex int
	// Exclusive reports that the top-level filter consists solely of this
	// join, so an index join that refines exactly fully enforces it.
	Exclusive bool
}

// Relation maps the join onto the shared geom join core.
func (j SpatialJoin) Relation() geom.JoinRelation {
	switch j.Fn {
	case FnSfContains:
		return geom.JoinContains
	case FnSfWithin:
		return geom.JoinWithin
	case FnDistance:
		if j.StrictLess {
			return geom.JoinNearer
		}
		return geom.JoinNearerEq
	default:
		return geom.JoinIntersects
	}
}

// String renders the join predicate compactly for plans and logs.
func (j SpatialJoin) String() string {
	if j.Fn == FnDistance {
		op := "<="
		if j.StrictLess {
			op = "<"
		}
		return fmt.Sprintf("geof:distance(?%s, ?%s) %s %g", j.VarA, j.VarB, op, j.Distance)
	}
	return fmt.Sprintf("%s(?%s, ?%s)", geofShortName(j.Fn), j.VarA, j.VarB)
}

// geofShortName compacts a geof: function IRI for display.
func geofShortName(iri string) string {
	const ns = "http://www.opengis.net/def/function/geosparql/"
	if strings.HasPrefix(iri, ns) {
		return "geof:" + iri[len(ns):]
	}
	return "<" + iri + ">"
}

// ExtractSpatialJoins scans the query's filters for accelerable
// variable-variable spatial joins: geof:sfIntersects/sfContains/sfWithin
// between two distinct variables, and distance joins of the forms
// geof:distance(?a, ?b) < d, geof:distance(?a, ?b) <= d, d >
// geof:distance(?a, ?b) and d >= geof:distance(?a, ?b). Only top-level
// and AND-combined conjuncts are considered; anything under OR/NOT stays
// with the generic evaluator.
func ExtractSpatialJoins(q *Query) []SpatialJoin {
	var out []SpatialJoin
	var visit func(e Expr, idx int, exclusive bool)
	visit = func(e Expr, idx int, exclusive bool) {
		switch ex := e.(type) {
		case AndExpr:
			visit(ex.L, idx, false)
			visit(ex.R, idx, false)
		case FuncExpr:
			if ex.Name != FnSfIntersects && ex.Name != FnSfContains && ex.Name != FnSfWithin {
				return
			}
			a, b, ok := splitVarVar(ex)
			if !ok {
				return
			}
			out = append(out, SpatialJoin{
				VarA: a, VarB: b, Fn: ex.Name,
				FilterIndex: idx, Exclusive: exclusive,
			})
		case CmpExpr:
			j, ok := distanceJoin(ex)
			if !ok {
				return
			}
			j.FilterIndex = idx
			j.Exclusive = exclusive
			out = append(out, j)
		}
	}
	for i, f := range q.Filters {
		visit(f, i, true)
	}
	return out
}

// splitVarVar matches a two-argument call whose arguments are two
// distinct variables.
func splitVarVar(ex FuncExpr) (a, b string, ok bool) {
	if len(ex.Args) != 2 {
		return "", "", false
	}
	va, okA := ex.Args[0].(VarExpr)
	vb, okB := ex.Args[1].(VarExpr)
	if !okA || !okB || va.Name == vb.Name {
		return "", "", false
	}
	return va.Name, vb.Name, true
}

// distanceJoin matches the distance-join comparison shapes. The
// threshold must be a non-negative numeric constant.
func distanceJoin(ex CmpExpr) (SpatialJoin, bool) {
	match := func(fe Expr, ce Expr, strict bool) (SpatialJoin, bool) {
		f, ok := fe.(FuncExpr)
		if !ok || f.Name != FnDistance {
			return SpatialJoin{}, false
		}
		a, b, ok := splitVarVar(f)
		if !ok {
			return SpatialJoin{}, false
		}
		c, ok := ce.(ConstExpr)
		if !ok || c.Term.Kind != rdf.Literal {
			return SpatialJoin{}, false
		}
		d, err := c.Term.Float()
		if err != nil || d < 0 {
			return SpatialJoin{}, false
		}
		return SpatialJoin{VarA: a, VarB: b, Fn: FnDistance, Distance: d, StrictLess: strict}, true
	}
	switch ex.Op {
	case OpLt:
		return match(ex.L, ex.R, true)
	case OpLe:
		return match(ex.L, ex.R, false)
	case OpGt:
		return match(ex.R, ex.L, true)
	case OpGe:
		return match(ex.R, ex.L, false)
	}
	return SpatialJoin{}, false
}

// SpatialReport classifies every geof call in the query's filters and
// returns one strategy line per call: index filter-and-refine for
// accelerable variable-constant predicates, R-tree index spatial join
// for accelerable variable-variable predicates, an unbound-variable
// rejection for predicates over variables outside the pattern group,
// and an explicit per-row/cartesian warning for everything else — so an
// unaccelerable spatial predicate can never degrade silently. The
// classification mirrors ExtractSpatialFilters, ExtractSpatialJoins and
// the planner's unbound-variable handling.
func SpatialReport(q *Query) []string {
	inBGP := map[string]bool{}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			inBGP[v] = true
		}
	}
	unboundOf := func(vars ...string) string {
		for _, v := range vars {
			if !inBGP[v] {
				return v
			}
		}
		return ""
	}
	var out []string
	report := func(idx int, desc, verdict string) {
		out = append(out, fmt.Sprintf("spatial: %s — %s (filter #%d)", desc, verdict, idx))
	}
	var visit func(e Expr, idx int, conjunct bool)
	visit = func(e Expr, idx int, conjunct bool) {
		switch ex := e.(type) {
		case AndExpr:
			visit(ex.L, idx, conjunct)
			visit(ex.R, idx, conjunct)
		case OrExpr:
			visit(ex.L, idx, false)
			visit(ex.R, idx, false)
		case NotExpr:
			visit(ex.E, idx, false)
		case CmpExpr:
			if conjunct {
				if j, ok := distanceJoin(ex); ok {
					if u := unboundOf(j.VarA, j.VarB); u != "" {
						report(idx, j.String(), "rejects every row (?"+u+" is outside the pattern group)")
					} else {
						report(idx, j.String(), "R-tree index distance join")
					}
					return
				}
			}
			visit(ex.L, idx, false)
			visit(ex.R, idx, false)
		case FuncExpr:
			switch ex.Name {
			case FnSfIntersects, FnSfContains, FnSfWithin, FnDistance:
			default:
				for _, a := range ex.Args {
					visit(a, idx, false)
				}
				return
			}
			desc := geofShortName(ex.Name) + renderArgs(ex.Args)
			if len(ex.Args) != 2 {
				report(idx, desc, "NOT index-accelerated: evaluated per row")
				return
			}
			if a, b, varVar := splitVarVar(ex); ex.Name != FnDistance && conjunct && varVar {
				if u := unboundOf(a, b); u != "" {
					report(idx, desc, "rejects every row (?"+u+" is outside the pattern group)")
				} else {
					report(idx, desc, "R-tree index spatial join")
				}
				return
			}
			if ex.Name != FnDistance && conjunct {
				if v, c, _ := splitVarConst(ex.Args[0], ex.Args[1]); v != "" {
					if _, err := geom.ParseWKT(c.Value); err == nil {
						if !inBGP[v] {
							report(idx, desc, "rejects every row (?"+v+" is outside the pattern group)")
						} else {
							report(idx, desc, "index filter-and-refine")
						}
						return
					}
				}
			}
			if _, _, varVar := splitVarVar(ex); varVar {
				report(idx, desc, "NOT index-accelerated: cartesian scan with per-pair exact tests")
				return
			}
			report(idx, desc, "NOT index-accelerated: evaluated per row")
		}
	}
	for i, f := range q.Filters {
		visit(f, i, true)
	}
	return out
}

// renderArgs renders a call argument list compactly, eliding long
// constants (WKT literals run to kilobytes).
func renderArgs(args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		s := a.String()
		if len(s) > 24 {
			s = s[:21] + "..."
		}
		parts[i] = s
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func splitVarConst(a, b Expr) (varName string, c rdf.Term, swapped bool) {
	if va, ok := a.(VarExpr); ok {
		if cb, ok := b.(ConstExpr); ok && cb.Term.Kind == rdf.Literal {
			return va.Name, cb.Term, false
		}
	}
	if vb, ok := b.(VarExpr); ok {
		if ca, ok := a.(ConstExpr); ok && ca.Term.Kind == rdf.Literal {
			return vb.Name, ca.Term, true
		}
	}
	return "", rdf.Term{}, false
}
