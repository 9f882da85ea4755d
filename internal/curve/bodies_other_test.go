//go:build !amd64 || purego

package curve

import "testing"

// eachLaneBody runs f on the one Lanes body this build has, the portable
// one.
func eachLaneBody(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }
