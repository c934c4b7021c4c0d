//go:build linux && (amd64 || arm64)

package ckpt

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writing back the
// range's dirty pages without waiting for them.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing f's dirty pages back
// now, while the rank runs its next superstep, so the flusher's fsync
// finds less to wait for. It is a hint only: its error is dropped
// because the fsync that follows is the durability point and reports
// any I/O error itself.
func startWriteback(f *os.File) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SyncFileRange(int(fd), 0, 0, syncFileRangeWrite)
	})
}
