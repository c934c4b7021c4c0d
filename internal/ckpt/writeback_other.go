//go:build !(linux && (amd64 || arm64))

package ckpt

import "os"

// startWriteback does nothing here: the hint it gives on linux has no
// portable equivalent, and the flusher's fsync is the durability point
// either way.
func startWriteback(*os.File) {}
