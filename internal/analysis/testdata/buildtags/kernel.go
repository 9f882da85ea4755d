// Package buildtags is a fixture with two build-constrained file pairs —
// one split on a GOARCH file-name suffix, one on a //go:build tag. Each pair
// declares the same names, so the package type-checks only if the loader
// keeps exactly the side `go build` would.
package buildtags

// Mul dispatches the way internal/fp does.
func Mul(x, y uint64) uint64 {
	if hasKernel {
		return mulKernel(x, y)
	}
	return x * y * tagged
}
