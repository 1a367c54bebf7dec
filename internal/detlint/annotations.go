package detlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The //detlint:scratch annotation extends the rule set with a fact the
// analyzers cannot infer: the function returns pass-scoped scratch
// storage (the profile returns its retained arrays), and scratchescape
// tracks its results exactly like slices pulled from
// policies.Ctx.Scratch().
//
// The annotation goes in the function's doc comment (a comment group
// directly above the declaration). Anywhere else it silently does
// nothing, so a floating annotation is reported under the pseudo-rule
// "detlint".
const scratchDirective = "detlint:scratch"

// collectAnnotations scans every loaded package (facts must cover call
// chains through non-target packages) and returns malformed-annotation
// findings for the target packages.
func collectAnnotations(mod *Module, targets []*Package) []Finding {
	scratch := make(map[*types.Func]bool)
	target := make(map[*Package]bool, len(targets))
	for _, pkg := range targets {
		target[pkg] = true
	}
	var bad []Finding
	for _, pkg := range mod.allPackages() {
		for _, file := range pkg.Files {
			attached := make(map[*ast.Comment]bool)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !isScratchAnnotation(c) {
						continue
					}
					attached[c] = true
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
						if target[pkg] {
							bad = append(bad, Finding{Rule: "detlint", Pos: mod.Fset.Position(c.Pos()),
								Msg: "//" + scratchDirective + " on a function with no results; the annotation marks returned scratch"})
						}
						continue
					}
					scratch[fn] = true
				}
			}
			if !target[pkg] {
				continue
			}
			for _, group := range file.Comments {
				for _, c := range group.List {
					if isScratchAnnotation(c) && !attached[c] {
						bad = append(bad, Finding{Rule: "detlint", Pos: mod.Fset.Position(c.Pos()),
							Msg: "//" + scratchDirective + " is not attached to a function declaration; put it in the doc comment directly above func"})
					}
				}
			}
		}
	}
	mod.scratch = scratch
	return bad
}

// isScratchAnnotation reports whether a comment carries the scratch
// annotation. Trailing prose after the directive word is allowed.
func isScratchAnnotation(c *ast.Comment) bool {
	text := strings.TrimPrefix(c.Text, "//")
	return text == scratchDirective || strings.HasPrefix(text, scratchDirective+" ")
}
