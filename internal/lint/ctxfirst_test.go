package lint_test

import (
	"testing"

	"filealloc/internal/lint"
)

// TestCtxFirst proves the parameter-order rule across declarations,
// interface methods, and function types, and the struct-storage rule with
// its sweep-package exemption (where parameter order is still enforced).
func TestCtxFirst(t *testing.T) {
	for _, tc := range []fixtureCase{
		{pkg: "ctxfix", analyzer: lint.CtxFirst, wants: 5},
		{pkg: "sweep", analyzer: lint.CtxFirst, wants: 1},
		{pkg: "loadgen", analyzer: lint.CtxFirst, wants: 1},
	} {
		t.Run(tc.pkg, func(t *testing.T) { checkFixture(t, tc) })
	}
}
