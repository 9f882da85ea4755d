//go:build !amd64 || purego

package cputest

import "testing"

// EachLaneBody runs f on the one Lanes body this build has, the portable
// one.
func EachLaneBody(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }
