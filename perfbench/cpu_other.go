//go:build !amd64

package main

import "runtime"

func cpuModel() string { return "unknown-" + runtime.GOARCH }
