//go:build !unix

package cluster

import "syscall"

// readableWhileIdle cannot look at a socket without blocking here, so an
// idle connection is taken as usable and a call on one the node closed
// fails like any other.
func readableWhileIdle(syscall.RawConn) bool { return false }
