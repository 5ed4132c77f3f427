package main

import "syscall"

// settleDisk writes back every dirty page and finishes the file
// deletions (with their discards) that set-up left behind, so that the
// measured window does not pay for the set-ups' I/O.
func settleDisk() { syscall.Sync() }
