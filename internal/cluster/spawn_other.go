//go:build !linux

package cluster

import "os/exec"

// setDeathSignal is a no-op off Linux, which has no parent-death
// signal: there only Close stops the children.
func setDeathSignal(*exec.Cmd) {}
