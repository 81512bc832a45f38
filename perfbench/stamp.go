package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// newStamp describes the host and the execution vehicle of a run. Every
// workload drives the default vehicle: program-form kernels, one kernel
// shard, steady-state extrapolation on.
func newStamp(workload string, seed int64, seconds float64, traced bool) map[string]any {
	return map[string]any{
		"workload": workload,
		"seed":     seed,
		"seconds":  seconds,
		"traced":   traced,
		"host": map[string]any{
			"cpu_model":  cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"commit":     gitCommit("."),
		},
		"vehicle": map[string]any{
			"mode":          "program",
			"shards":        1,
			"extrapolation": true,
		},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the checked-out commit from root/.git without running
// git, or reports "unknown" for a checkout that is not a git repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
