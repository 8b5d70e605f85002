//go:build unix

package cluster

import "syscall"

// readableWhileIdle reports whether an idle socket has anything to read — the
// node's close (a read of 0) or stray bytes — with one non-blocking read on
// its descriptor, which the runtime keeps in non-blocking mode.
func readableWhileIdle(raw syscall.RawConn) bool {
	readable := true
	var one [1]byte
	err := raw.Read(func(fd uintptr) bool {
		_, err := syscall.Read(int(fd), one[:])
		readable = err != syscall.EAGAIN && err != syscall.EWOULDBLOCK
		return true
	})
	return readable || err != nil
}
