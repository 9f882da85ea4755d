//go:build !purego

package buildtags

var hasKernel = true

func mulKernel(x, y uint64) uint64 { return x * y }
