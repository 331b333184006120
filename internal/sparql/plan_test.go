package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func planTestStore() *rdf.Store {
	st := diffStore(11, 50)
	return st
}

func TestPlanMergeJoinStarQuery(t *testing.T) {
	st := planTestStore()
	// Find a value literal that actually occurs, so both patterns have
	// non-empty ranges.
	var val rdf.Term
	st.MatchTerms(rdf.Term{}, rdf.NewIRI("http://example.org/p/value"), rdf.Term{}, func(tr rdf.Triple) bool {
		val = tr.O
		return false
	})
	// Two constant-(P,O) patterns on the same subject: the first scan
	// yields subjects ascending (POS), so the second should merge.
	q := MustParse(`
		SELECT ?a WHERE {
			?a a <http://example.org/Class1> .
			?a <http://example.org/p/value> ` + val.Value + ` .
		}`)
	p, err := CompilePlan(st, q, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex := p.Explain(); !strings.Contains(ex, "merge POS(p,o)") {
		t.Errorf("expected a merge join in plan:\n%s", ex)
	}
	checkEquivalent(t, st, q, "merge star")
}

func TestPlanFilterPushdown(t *testing.T) {
	st := planTestStore()
	q := MustParse(`
		SELECT ?a ?v WHERE {
			?a <http://example.org/p/value> ?v .
			?a <http://example.org/p/link> ?b .
			FILTER(?v > 50)
		}`)
	p, err := CompilePlan(st, q, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	if !strings.Contains(ex, "pushed filter") {
		t.Fatalf("expected a pushed filter in plan:\n%s", ex)
	}
	// The filter depends only on ?v, so it must be attached to the value
	// pattern's step, not the last step.
	lines := strings.Split(ex, "\n")
	for i, l := range lines {
		if strings.Contains(l, "pushed filter") {
			if i == 0 || !strings.Contains(lines[i-1], "p/value") {
				t.Errorf("filter not attached to the ?v-binding step:\n%s", ex)
			}
		}
	}
	checkEquivalent(t, st, q, "pushdown")
}

func TestPlanEmptyForAbsentConstant(t *testing.T) {
	st := planTestStore()
	q := MustParse(`SELECT ?a WHERE { ?a a <http://example.org/Missing> . ?a ?p ?o . }`)
	p, err := CompilePlan(st, q, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "empty") {
		t.Errorf("plan for absent constant should be empty:\n%s", p.Explain())
	}
	res, err := p.Execute()
	if err != nil || res.Len() != 0 {
		t.Errorf("res = %v rows, err %v; want 0, nil", res.Len(), err)
	}
}

// TestProjectDoesNotAliasQueryVars is the regression test for the
// SELECT * projection appending into a shared Query's Vars backing
// array.
func TestProjectDoesNotAliasQueryVars(t *testing.T) {
	st := planTestStore()
	backing := make([]string, 1, 8)
	backing = backing[:1]
	backing[0] = "keepme"
	sentinel := backing[:1:8] // spare capacity invites in-place append
	q := &Query{
		Vars: sentinel,
		Star: true,
		Patterns: []rdf.TriplePattern{{
			S: rdf.V("x"),
			P: rdf.T(rdf.NewIRI("http://example.org/p/value")),
			O: rdf.V("v"),
		}},
	}
	for _, eval := range []func(*rdf.Store, *Query) (*Results, error){Eval, EvalLegacy} {
		res, err := eval(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Vars) != 3 {
			t.Fatalf("vars = %v, want [keepme x v]", res.Vars)
		}
		if got := backing[:cap(backing)][1]; got != "" {
			t.Errorf("projection scribbled %q into the query's Vars backing array", got)
		}
		if len(q.Vars) != 1 || q.Vars[0] != "keepme" {
			t.Errorf("q.Vars mutated: %v", q.Vars)
		}
	}
}

func TestSortRowsNumericKeys(t *testing.T) {
	rows := []map[string]rdf.Term{
		{"v": rdf.NewIntLiteral(10)},
		{"v": rdf.NewIntLiteral(2)},
		{"v": rdf.NewIntLiteral(33)},
	}
	sortRows(rows, "v", false)
	if rows[0]["v"].Value != "2" || rows[2]["v"].Value != "33" {
		t.Errorf("numeric sort failed: %v", rows)
	}
	sortRows(rows, "v", true)
	if rows[0]["v"].Value != "33" {
		t.Errorf("desc sort failed: %v", rows)
	}
}

func TestRowArenaCopiesAreStable(t *testing.T) {
	a := rdf.NewRowArena(3)
	scratch := rdf.Row{1, 2, 3}
	var rows []rdf.Row
	for i := 0; i < 5000; i++ {
		scratch[0] = rdf.ID(i)
		rows = append(rows, a.Copy(scratch))
	}
	for i, r := range rows {
		if r[0] != rdf.ID(i) || r[1] != 2 || r[2] != 3 {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
}

func TestPlanSeededExecution(t *testing.T) {
	// Seeded evaluation with a sorted seed stream must match filtering
	// the oracle's results to the seeded IDs.
	st := planTestStore()
	q := MustParse(`SELECT ?a ?w WHERE { ?a <http://example.org/p/wkt> ?w . }`)
	oracle, err := EvalLegacy(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Len() == 0 {
		t.Fatal("test store has no geometries")
	}
	// Seed on every other geometry ID.
	keep := map[string]bool{}
	var ids []rdf.ID
	for i, row := range oracle.Rows {
		if i%2 == 0 {
			continue
		}
		id, ok := st.Dict().Lookup(row["w"])
		if !ok {
			t.Fatal("geometry term missing from dictionary")
		}
		ids = append(ids, id)
		keep[row["w"].String()] = true
	}
	p, err := CompilePlan(st, q, PlanOpts{SeedVar: "w", SeedsSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteSeeded(p.SeedRows(ids))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, row := range oracle.Rows {
		if keep[row["w"].String()] {
			want++
		}
	}
	if res.Len() != want {
		t.Fatalf("seeded rows = %d, want %d", res.Len(), want)
	}
	for _, row := range res.Rows {
		if !keep[row["w"].String()] {
			t.Fatalf("row %v outside seed set", row)
		}
	}
}
