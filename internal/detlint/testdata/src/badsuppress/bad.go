// Package badsuppress is a fixture for malformed suppression
// directives; each one below is reported under the pseudo-rule
// "detlint".
package badsuppress

//detlint:ignore
var a = 0

//detlint:ignore nomaprange
var b = 0

//detlint:ignore nosuchrule because reasons
var c = 0

//detlint:ignore stalesuppress it reports dead directives and cannot be silenced
var d = 0

//detlint:noalloc

// handleflow was folded into eventretain and jobretain; its name is no
// longer a rule.
//
//detlint:ignore handleflow the old call-site rule
var e = 0

var _ = a + b + c + d + e
