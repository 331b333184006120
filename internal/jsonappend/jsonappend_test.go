package jsonappend

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestStringMatchesEncodingJSON(t *testing.T) {
	corpus := []string{
		"", "plain", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f", "line\u2028para\u2029end",
		"bad \xff utf8 \xc3", "\xe2\x80", "héllo wörld \u2603 \U0001D11E", "\ufffd literal",
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", " ", `"`, `\`, "<", ">", "&", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xe2\x80", "\U0001D11E"}
	for i := 0; i < 2000; i++ {
		var s string
		for n := rng.Intn(12); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		corpus = append(corpus, s)
	}
	for _, s := range corpus {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("String(%q) = %s, encoding/json = %s", s, got[len("prefix"):], want)
		}
	}
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	corpus := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.99999e-7,
		1e20, 1e21, -1e21, 123456789.125, 1e300, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 3.141592653589793, 1.5e-10, 2.5e-100,
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		corpus = append(corpus, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*1e6, rng.Float64())
	}
	for _, f := range corpus {
		want, err := json.Marshal(f)
		if err != nil {
			if _, ok := Float(nil, f); ok {
				t.Fatalf("Float(%v) ok, encoding/json: %v", f, err)
			}
			continue
		}
		got, ok := Float([]byte("x"), f)
		if !ok || string(got) != "x"+string(want) {
			t.Fatalf("Float(%v) = %s %v, encoding/json = %s", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := Float([]byte("x"), f); ok || string(got) != "x" {
			t.Fatalf("Float(%v) = %q, %v; want unchanged, false", f, got, ok)
		}
	}
}
