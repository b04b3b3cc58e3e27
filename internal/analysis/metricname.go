package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// MetricName enforces the fleet metric conventions on the one metrics
// registry (internal/expo): every family is declared through
// Registry.Counter or Registry.Gauge with a constant name, named crserve_*
// or crshard_* in snake_case, and counters end in _total while gauges do
// not. A Prometheus TYPE line written anywhere outside the registry package
// is a second renderer and is reported too.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "metric families are declared once in the expo registry under constant crserve_/crshard_ names, _total for counters only",
	Run:  runMetricName,
}

var (
	metricNameRE = regexp.MustCompile(`^(crserve|crshard)(_[a-z0-9]+)+$`)
	// typeLineRE finds an exposition TYPE line in a string literal. It is
	// written so that this file's own literals do not match it.
	typeLineRE = regexp.MustCompile(`#\s*TYPE\s`)
)

// registryPkg is the name of the package that owns the exposition format.
const registryPkg = "expo"

func runMetricName(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == registryPkg {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					return true
				}
				if val, err := strconv.Unquote(n.Value); err == nil && typeLineRE.MatchString(val) {
					pass.Reportf(n.Pos(), "exposition TYPE line written outside the %s registry; declare the family with Registry.Counter or Registry.Gauge", registryPkg)
				}
			case *ast.CallExpr:
				checkMetricDecl(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMetricDecl checks one Registry.Counter or Registry.Gauge call.
func checkMetricDecl(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != registryPkg {
		return
	}
	kind := fn.Name()
	if kind != "Counter" && kind != "Gauge" {
		return
	}
	tv := pass.TypesInfo.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Args[0].Pos(), "metric name passed to %s must be a constant string", kind)
		return
	}
	name := constant.StringVal(tv.Value)
	switch {
	case !metricNameRE.MatchString(name):
		pass.Reportf(call.Args[0].Pos(), "metric %q violates the naming convention: crserve_/crshard_ prefix, snake_case segments", name)
	case kind == "Counter" && !strings.HasSuffix(name, "_total"):
		pass.Reportf(call.Args[0].Pos(), "counter %q must end in _total", name)
	case kind == "Gauge" && strings.HasSuffix(name, "_total"):
		pass.Reportf(call.Args[0].Pos(), "gauge %q must not end in _total (_total marks counters)", name)
	}
}
