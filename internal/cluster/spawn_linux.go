package cluster

import (
	"os/exec"
	"syscall"
)

// setDeathSignal has the kernel SIGKILL the child when the process that
// started it dies, so a gateway killed from outside, where Close never
// runs, takes its nodes with it.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
