package detlint

import "go/ast"

// NoWallClock forbids reading the wall clock in deterministic packages.
// Simulated time comes from sim.Engine.Now; a single time.Now (for a
// timestamp, a timeout, a seed) silently couples results to the host
// machine and breaks replay. The rule flags the direct use and, through
// the taint closure (taint.go), every call from a deterministic package
// to a module function that reaches the wall clock, however many helper
// hops away and wherever the helper lives.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "no time.Now/Since/Sleep/... in deterministic packages, directly or through a callee; use virtual time (sim.Engine.Now)",
	Run:  runNoWallClock,
}

const wallClockAdvice = "use virtual time (sim.Engine.Now)"

// wallClockFuncs are the package-level time functions that observe or
// depend on the real clock. Pure constructors and constants (time.Date,
// time.Second) are allowed: they are deterministic values.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runNoWallClock(p *Pass) {
	if !p.Deterministic() {
		return
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if name := wallClock(info, n); name != "" {
					p.Reportf(n.Pos(), "%s reads the wall clock in deterministic package %s; %s",
						name, p.Pkg.ImportPath, wallClockAdvice)
				}
			case *ast.CallExpr:
				reportTaintedCall(p, n)
			}
			return true
		})
	}
}
