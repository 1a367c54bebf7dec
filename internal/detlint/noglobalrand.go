package detlint

// NoGlobalRand forbids math/rand and math/rand/v2 anywhere in non-test
// code. All randomness must flow through internal/rng: its named,
// seed-derived streams are what keep every stochastic component on its
// own reproducible sequence (the common-random-numbers discipline behind
// the paper's policy comparisons). math/rand's global source is seeded
// per-process and shared across callers, so one stray call perturbs every
// downstream draw. The rule flags the import module-wide. That also
// covers a draw laundered through a helper: the helper's file imports
// math/rand, so it is reported whichever package calls it.
var NoGlobalRand = &Analyzer{
	Name: "noglobalrand",
	Doc:  "no math/rand or math/rand/v2 import in non-test code; use internal/rng seeded streams",
	Run:  runNoGlobalRand,
}

var forbiddenRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func runNoGlobalRand(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, imp := range file.Imports {
			path := quoteImportPath(imp.Path.Value)
			if forbiddenRandImports[path] {
				p.Reportf(imp.Pos(),
					"import of %s: all randomness must flow through internal/rng seeded streams", path)
			}
		}
	}
}
