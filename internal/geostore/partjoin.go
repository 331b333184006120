package geostore

import (
	"context"
	"sync"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// This file implements cross-partition spatial joins. Features are
// hash-partitioned by IRI, so the two sides of a variable-variable
// spatial join usually live in different partitions and per-partition
// BGP evaluation cannot see the pair. The broadcast strategy:
//
//  1. Split the query's BGP into the two pattern components connected
//     only by the join (probe side = the component of the join's first
//     variable, build side = the other).
//  2. Evaluate the probe component on every partition in parallel.
//  3. Broadcast the probe rows' geometry windows to every partition:
//     each partition's R-tree prunes its build-side geometry candidates,
//     which seed the build-component evaluation locally.
//  4. Pair probe and build rows globally through one R-tree over the
//     build rows, refining the join predicate exactly.
//  5. Apply projection, aggregates, DISTINCT, ORDER BY, OFFSET and
//     LIMIT globally on the joined rows.
//
// Queries that do not decompose (several joins, a non-exclusive join
// conjunction, or a filter spanning both sides) fall back to evaluating
// against a transient merged single-node store: slower, never wrong.

// joinSplit is a query decomposed around one exclusive spatial join.
type joinSplit struct {
	join        sparql.SpatialJoin
	left, right *sparql.Query // component subqueries projecting all their vars
}

// querySpatialJoin evaluates a query containing variable-variable
// spatial joins across all partitions without losing cross-partition
// pairs.
func (ps *PartitionedStore) querySpatialJoin(ctx context.Context, q *sparql.Query, joins []sparql.SpatialJoin) (*sparql.Results, error) {
	sp, ok := splitSpatialJoin(q, joins)
	if !ok {
		return ps.queryMerged(ctx, q)
	}
	j := sp.join
	rel := j.Relation()

	// 1+2. Probe side on every partition.
	leftRes, err := ps.queryAllParts(ctx, sp.left)
	if err != nil {
		return nil, err
	}
	parse := newWKTCache()
	var leftRows []map[string]rdf.Term
	var leftGeoms []geom.Geometry
	for _, row := range leftRes {
		g, ok := parse.geometry(row[j.VarA])
		if !ok {
			// Missing or unparseable geometry: the predicate errors on
			// this row, which rejects it in SPARQL semantics.
			continue
		}
		leftRows = append(leftRows, row)
		leftGeoms = append(leftGeoms, g)
	}

	var joined []map[string]rdf.Term
	if len(leftRows) > 0 {
		// 3. Broadcast the probe windows; evaluate the build side seeded
		// on each partition's R-tree candidates.
		windows := make([]geom.Rect, len(leftGeoms))
		for i, g := range leftGeoms {
			windows[i] = geom.JoinWindow(rel, g, j.Distance)
		}
		rightRes, err := ps.queryBuildSide(sp.right, j.VarB, windows)
		if err != nil {
			return nil, err
		}
		var rightRows []map[string]rdf.Term
		var rightGeoms []geom.Geometry
		for _, row := range rightRes {
			g, ok := parse.geometry(row[j.VarB])
			if !ok {
				continue
			}
			rightRows = append(rightRows, row)
			rightGeoms = append(rightGeoms, g)
		}

		// 4. Global pairing through one R-tree over the build rows.
		if len(rightRows) > 0 {
			tree := geom.NewRTree()
			bounds := make([]geom.Rect, len(rightGeoms))
			data := make([]int64, len(rightGeoms))
			for i, g := range rightGeoms {
				bounds[i] = g.Bounds()
				data[i] = int64(i)
			}
			tree.BulkLoad(bounds, data)
			for li, lg := range leftGeoms {
				ps.joinProbes.Add(1)
				tree.Search(windows[li], func(_ geom.Rect, d int64) bool {
					ri := int(d)
					if !geom.JoinHolds(rel, lg, rightGeoms[ri], j.Distance) {
						return true
					}
					row := make(map[string]rdf.Term, len(leftRows[li])+len(rightRows[ri]))
					for k, v := range leftRows[li] {
						row[k] = v
					}
					for k, v := range rightRows[ri] {
						row[k] = v
					}
					joined = append(joined, row)
					return true
				})
			}
		}
	}

	// 5. Global solution modifiers over the joined rows.
	return projectJoined(q, joined), nil
}

// splitSpatialJoin decomposes q around a single exclusive
// variable-variable join: the BGP's patterns must form exactly two
// variable-connected components, one per join side, and every other
// filter must stay within one component. ok is false when the query does
// not have that shape.
func splitSpatialJoin(q *sparql.Query, joins []sparql.SpatialJoin) (*joinSplit, bool) {
	if len(joins) != 1 || !joins[0].Exclusive {
		return nil, false
	}
	j := joins[0]

	// Union-find over variables, joined through shared patterns.
	parent := map[string]string{}
	var find func(v string) string
	find = func(v string) string {
		p, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if p != v {
			p = find(p)
			parent[v] = p
		}
		return p
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, tp := range q.Patterns {
		vars := tp.Vars()
		for i := 1; i < len(vars); i++ {
			union(vars[0], vars[i])
		}
	}
	if _, ok := parent[j.VarA]; !ok {
		return nil, false
	}
	if _, ok := parent[j.VarB]; !ok {
		return nil, false
	}
	compA, compB := find(j.VarA), find(j.VarB)
	if compA == compB {
		return nil, false
	}

	left := &sparql.Query{}
	right := &sparql.Query{}
	addVars := func(dst *sparql.Query, vars []string) {
		for _, v := range vars {
			dup := false
			for _, u := range dst.Vars {
				if u == v {
					dup = true
					break
				}
			}
			if !dup {
				dst.Vars = append(dst.Vars, v)
			}
		}
	}
	for _, tp := range q.Patterns {
		vars := tp.Vars()
		if len(vars) == 0 {
			// A fully constant pattern is a boolean guard; either side
			// enforces it for the whole query.
			left.Patterns = append(left.Patterns, tp)
			continue
		}
		switch find(vars[0]) {
		case compA:
			left.Patterns = append(left.Patterns, tp)
			addVars(left, vars)
		case compB:
			right.Patterns = append(right.Patterns, tp)
			addVars(right, vars)
		default:
			// A third disconnected component means the query is a triple
			// cross product; the merged fallback handles it.
			return nil, false
		}
	}
	for i, f := range q.Filters {
		if i == j.FilterIndex {
			continue // the join itself: enforced by the pairing stage
		}
		inA, inB := false, false
		for _, v := range sparql.ExprVars(f) {
			if _, known := parent[v]; !known {
				// A variable outside the BGP rejects every row wherever
				// the filter runs; assignment below keeps that semantic.
				continue
			}
			switch find(v) {
			case compA:
				inA = true
			case compB:
				inB = true
			}
		}
		if inA && inB {
			return nil, false // spans both sides: needs the joined row
		}
		if inB {
			right.Filters = append(right.Filters, f)
		} else {
			left.Filters = append(left.Filters, f)
		}
	}
	return &joinSplit{join: j, left: left, right: right}, true
}

// queryAllParts evaluates a component subquery on every partition in
// parallel and concatenates the rows (features are co-located, so
// component solutions never span partitions).
func (ps *PartitionedStore) queryAllParts(ctx context.Context, q *sparql.Query) ([]map[string]rdf.Term, error) {
	type partRes struct {
		res *sparql.Results
		err error
	}
	out := make([]partRes, len(ps.parts))
	var wg sync.WaitGroup
	for i, p := range ps.parts {
		wg.Add(1)
		go func(i int, p *Store) {
			defer wg.Done()
			r, err := p.QueryContext(ctx, q)
			out[i] = partRes{r, err}
		}(i, p)
	}
	wg.Wait()
	var rows []map[string]rdf.Term
	for _, pr := range out {
		if pr.err != nil {
			return nil, pr.err
		}
		rows = append(rows, pr.res.Rows...)
	}
	return rows, nil
}

// queryBuildSide evaluates the build component on every partition,
// seeded by the geometry IDs whose bounds intersect any broadcast
// window (the partition-local R-tree prunes; exact refinement happens at
// the global pairing stage).
func (ps *PartitionedStore) queryBuildSide(q *sparql.Query, geomVar string, windows []geom.Rect) ([]map[string]rdf.Term, error) {
	type partRes struct {
		res *sparql.Results
		err error
	}
	out := make([]partRes, len(ps.parts))
	var wg sync.WaitGroup
	for i, p := range ps.parts {
		wg.Add(1)
		go func(i int, p *Store) {
			defer wg.Done()
			out[i].res, out[i].err = p.queryWindowSeeded(q, geomVar, windows)
		}(i, p)
	}
	wg.Wait()
	var rows []map[string]rdf.Term
	for _, pr := range out {
		if pr.err != nil {
			return nil, pr.err
		}
		if pr.res != nil {
			rows = append(rows, pr.res.Rows...)
		}
	}
	return rows, nil
}

// queryWindowSeeded evaluates q on one partition seeded by the local
// geometry IDs whose bounds intersect any of the windows.
func (s *Store) queryWindowSeeded(q *sparql.Query, geomVar string, windows []geom.Rect) (*sparql.Results, error) {
	s.Build()

	candidates := map[rdf.ID]bool{}
	s.mu.RLock()
	for _, w := range windows {
		s.joinProbes.Add(1)
		s.rtree.Search(w, func(_ geom.Rect, data int64) bool {
			candidates[rdf.ID(data)] = true
			return true
		})
	}
	s.mu.RUnlock()
	if len(candidates) == 0 {
		return nil, nil
	}
	ids := make([]rdf.ID, 0, len(candidates))
	for id := range candidates {
		ids = append(ids, id)
	}
	plan, err := sparql.CompilePlan(s.rdfStore, q, sparql.PlanOpts{
		SeedVar: geomVar, SeedsSorted: true,
	})
	if err != nil {
		return nil, err
	}
	return plan.ExecuteSeeded(plan.SeedRows(ids))
}

// queryMerged evaluates q against a single-node store holding every
// partition's triples: the correctness fallback for spatial-join
// queries that do not decompose into two broadcastable components. The
// merged store is cached and rebuilt only when a partition mutates, so
// repeated fallback queries pay the merge once per store version.
func (ps *PartitionedStore) queryMerged(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	st, err := ps.mergedStore()
	if err != nil {
		return nil, err
	}
	return st.QueryContext(ctx, q)
}

// mergedStore returns the cached merged store, rebuilding it when any
// partition has mutated since the last merge.
func (ps *PartitionedStore) mergedStore() (*Store, error) {
	version := ps.Version()
	ps.mergedMu.Lock()
	defer ps.mergedMu.Unlock()
	if ps.merged != nil && ps.mergedVersion == version {
		return ps.merged, nil
	}
	st := New(ModeIndexed)
	st.SetParallel(ps.parallel, ps.gate)
	st.SetLogger(ps.logger)
	for _, p := range ps.parts {
		for _, t := range p.rdfStore.Triples() {
			if err := st.Add(t.S, t.P, t.O); err != nil {
				return nil, err
			}
		}
	}
	st.Build()
	if ps.merged != nil {
		// Keep SpatialJoinStats monotonic across rebuilds: fold the
		// retired store's probe count into the global counter.
		ps.joinProbes.Add(ps.merged.SpatialJoinStats())
	}
	ps.merged, ps.mergedVersion = st, version
	return st, nil
}

// wktCache parses each distinct WKT literal once per join evaluation.
type wktCache struct {
	geoms map[string]geom.Geometry
}

func newWKTCache() *wktCache { return &wktCache{geoms: map[string]geom.Geometry{}} }

// geometry returns the parsed geometry of a WKT literal term; ok is
// false for missing terms, non-literals and invalid WKT.
func (c *wktCache) geometry(t rdf.Term) (geom.Geometry, bool) {
	if t.Kind != rdf.Literal || t.Value == "" {
		return nil, false
	}
	if g, ok := c.geoms[t.Value]; ok {
		return g, g != nil
	}
	g, err := geom.ParseWKT(t.Value)
	if err != nil {
		c.geoms[t.Value] = nil
		return nil, false
	}
	c.geoms[t.Value] = g
	return g, true
}

// projectJoined applies the full solution-modifier pipeline to joined
// rows: projection (or aggregates), DISTINCT, ORDER BY, OFFSET, LIMIT.
func projectJoined(q *sparql.Query, rows []map[string]rdf.Term) *sparql.Results {
	if len(q.Aggregates) > 0 {
		return aggregateJoined(q, rows)
	}
	vars := append([]string(nil), q.Vars...)
	if q.Star {
		seen := map[string]bool{}
		for _, tp := range q.Patterns {
			for _, v := range tp.Vars() {
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
	}
	res := &sparql.Results{Vars: vars}
	for _, row := range rows {
		proj := make(map[string]rdf.Term, len(vars))
		for _, v := range vars {
			if t, ok := row[v]; ok {
				proj[v] = t
			}
		}
		res.Rows = append(res.Rows, proj)
	}
	if q.Distinct {
		dedupRows(res)
	}
	if q.OrderBy != "" {
		sparql.SortRows(res.Rows, q.OrderBy, q.OrderDesc)
	}
	sparql.ApplyOffsetLimit(res, q)
	return res
}

// aggregateJoined folds joined rows into COUNT groups (the decoded-row
// analogue of the legacy evaluator's projectAggregates).
func aggregateJoined(q *sparql.Query, rows []map[string]rdf.Term) *sparql.Results {
	var vars []string
	if q.GroupBy != "" {
		vars = append(vars, q.GroupBy)
	}
	for _, a := range q.Aggregates {
		vars = append(vars, a.As)
	}
	res := &sparql.Results{Vars: vars}

	type group struct {
		key    rdf.Term
		counts []int64
	}
	groups := map[string]*group{}
	var order []string
	for _, row := range rows {
		key := ""
		var keyTerm rdf.Term
		if q.GroupBy != "" {
			t, ok := row[q.GroupBy]
			if !ok {
				continue
			}
			key, keyTerm = t.String(), t
		}
		g := groups[key]
		if g == nil {
			g = &group{key: keyTerm, counts: make([]int64, len(q.Aggregates))}
			groups[key] = g
			order = append(order, key)
		}
		for i, a := range q.Aggregates {
			if a.Var == "" {
				g.counts[i]++
				continue
			}
			if _, bound := row[a.Var]; bound {
				g.counts[i]++
			}
		}
	}
	if q.GroupBy == "" && len(groups) == 0 {
		groups[""] = &group{counts: make([]int64, len(q.Aggregates))}
		order = append(order, "")
	}
	for _, key := range order {
		g := groups[key]
		row := make(map[string]rdf.Term, len(vars))
		if q.GroupBy != "" {
			row[q.GroupBy] = g.key
		}
		for i, a := range q.Aggregates {
			row[a.As] = rdf.NewIntLiteral(g.counts[i])
		}
		res.Rows = append(res.Rows, row)
	}
	if q.OrderBy != "" {
		sparql.SortRows(res.Rows, q.OrderBy, q.OrderDesc)
	}
	sparql.ApplyOffsetLimit(res, q)
	return res
}
