package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadArgs covers the argument errors run reports before it
// loads data or listens: each must fail fast with its own message.
func TestRunRejectsBadArgs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"mode flag is gone", []string{"-mode", "partitioned"}, "flag provided but not defined: -mode"},
		{"parts flag is gone", []string{"-parts", "4"}, "flag provided but not defined: -parts"},
		{"replica without data dir", []string{"-replica-of", "http://primary:8080", "-replication-token", "s"},
			"-replica-of requires -data-dir and -replication-token"},
		{"replica without token", []string{"-replica-of", "http://primary:8080", "-data-dir", dir},
			"-replica-of requires -data-dir and -replication-token"},
		{"replica with load", []string{"-replica-of", "http://primary:8080", "-data-dir", dir,
			"-replication-token", "s", "-load", "data.nt"}, "a replica is read-only"},
		{"bad log format", []string{"-log-format", "xml"}, `unknown log format "xml"`},
		{"bad lag policy", []string{"-replica-lag-policy", "drop"}, `unknown replica lag policy "drop"`},
		{"positional arguments", []string{"-n", "0", "extra"}, "unexpected arguments [extra]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
