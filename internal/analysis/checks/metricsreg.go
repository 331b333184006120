package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// registryNameMethods are the telemetry.Registry methods whose first
// argument is a new metric family name.
var registryNameMethods = map[string]bool{
	"Counter": true, "CounterFunc": true, "FloatCounterFunc": true, "CounterFamily": true,
	"Gauge": true, "GaugeFunc": true, "IntGaugeFunc": true, "GaugeFamily": true,
	"DurationHistogram": true, "ValueHistogram": true, "DurationHistogramFamily": true,
}

// familyLabelMethods maps the telemetry family methods that attach a
// labeled series to the index of their first label argument.
var familyLabelMethods = map[string]int{
	"Counter":    0, // CounterFamily.Counter(labels...)
	"Attach":     1, // CounterFamily.Attach(c, labels...)
	"AttachFunc": 1, // CounterFamily.AttachFunc(fn, labels...)
	"Const":      1, // GaugeFamily.Const(v, labels...)
	"IntFunc":    1, // GaugeFamily.IntFunc(fn, labels...)
	"Histogram":  0, // HistogramFamily.Histogram(labels...)
}

// Metricsreg keeps the metric namespace auditable: every family name
// handed to the telemetry registry must be (or be built from) a
// package-level constant, so the README metrics table, dashboards, and
// grep can enumerate the namespace without executing code; and every
// label value attached to a family must be closed at registration —
// a constant, or a range over a fixed all-constant list — so a request
// field can never mint unbounded label cardinality (the static
// complement of the runtime TestMetricsDocumentedInReadme). The
// telemetry package itself and _test.go files are exempt: test
// registries are never scraped.
var Metricsreg = &analysis.Analyzer{
	Name: "metricsreg",
	Doc: "metric names are package-level constants registered via\n" +
		"internal/telemetry; label sets are closed at registration",
	Run: runMetricsreg,
}

func runMetricsreg(pass *analysis.Pass) error {
	if pathHasDir(pass.PkgPath, "internal/telemetry") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObj(pass.TypesInfo, call)
				if obj == nil || objPkgPath(obj) != "repro/internal/telemetry" {
					return true
				}
				recv := methodRecvName(obj)
				switch {
				case recv == "Registry" && registryNameMethods[obj.Name()]:
					if len(call.Args) > 0 && !isPkgLevelConstExpr(pass, call.Args[0]) {
						pass.Reportf(call.Args[0].Pos(),
							"metric name for %s must be a package-level constant (inline literals make the namespace ungreppable)",
							obj.Name())
					}
				default:
					start, ok := familyLabelMethods[obj.Name()]
					if !ok || !isFamilyRecv(recv) {
						return true
					}
					for i := start; i < len(call.Args); i++ {
						if !labelClosed(pass, fn, call.Args[i]) {
							pass.Reportf(call.Args[i].Pos(),
								"label value for %s.%s is not closed at registration: use a constant or range over a fixed list",
								recv, obj.Name())
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

func isFamilyRecv(recv string) bool {
	return recv == "CounterFamily" || recv == "GaugeFamily" || recv == "HistogramFamily"
}

// methodRecvName returns the receiver type name of a method object, ""
// for plain functions.
func methodRecvName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isPkgLevelConstExpr reports whether e is a reference to (or constant
// expression built only from) package-level string constants.
func isPkgLevelConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return isPkgLevelConstObj(pass.TypesInfo.Uses[e])
	case *ast.SelectorExpr:
		return isPkgLevelConstObj(pass.TypesInfo.Uses[e.Sel])
	case *ast.BinaryExpr:
		return isPkgLevelConstExpr(pass, e.X) || isPkgLevelConstExpr(pass, e.Y)
	default:
		return false // inline literal
	}
}

func isPkgLevelConstObj(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil {
		return false
	}
	return c.Parent() == c.Pkg().Scope()
}

// labelClosed reports whether a label argument's value space is fixed
// at registration: a constant expression, or an identifier fed by a
// range over an all-constant string list (possibly via a package-level
// var), the idiom the storage io-error and store-memory families use.
func labelClosed(pass *analysis.Pass, fn *ast.FuncDecl, arg ast.Expr) bool {
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		return true
	}
	id, ok := unparen(arg).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	for hops := 0; obj != nil && hops < 4; hops++ {
		src := definingExpr(pass, fn, obj)
		switch src := src.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[src]
		case *ast.CompositeLit: // range over literal resolved below
			return constStringList(pass, src)
		case ast.Expr:
			return false
		default:
			return false
		}
	}
	return false
}

// definingExpr finds, within fn, the expression that feeds obj: the
// range expression when obj is a range variable, or the matching RHS of
// a := / var declaration. Package-level vars resolve to their
// initializer.
func definingExpr(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object) ast.Expr {
	var out ast.Expr
	ast.Inspect(fn, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if id, ok := v.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj {
					out = rangeSource(pass, n.X)
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj && i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					out = n.Rhs[i]
					return false
				}
			}
		}
		return true
	})
	if out != nil {
		return out
	}
	return pkgVarInit(pass, obj)
}

// rangeSource resolves the ranged expression to a composite literal,
// following one identifier hop to a package-level var initializer.
func rangeSource(pass *analysis.Pass, x ast.Expr) ast.Expr {
	switch x := unparen(x).(type) {
	case *ast.CompositeLit:
		return x
	case *ast.Ident:
		return pkgVarInit(pass, pass.TypesInfo.Uses[x])
	case *ast.SelectorExpr:
		return pkgVarInit(pass, pass.TypesInfo.Uses[x.Sel])
	}
	return nil
}

// pkgVarInit returns the initializer expression of a package-level var.
func pkgVarInit(pass *analysis.Pass, obj types.Object) ast.Expr {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if pass.TypesInfo.Defs[name] == obj && i < len(vs.Values) {
						return vs.Values[i]
					}
				}
			}
		}
	}
	return nil
}

// constStringList reports whether lit is a slice/array literal whose
// elements are all constant strings.
func constStringList(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	for _, el := range lit.Elts {
		tv, ok := pass.TypesInfo.Types[el]
		if !ok || tv.Value == nil {
			return false
		}
	}
	return true
}
