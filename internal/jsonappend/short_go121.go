//go:build !go1.22

package jsonappend

// shortBF: before Go 1.22 encoding/json escapes '\b' and '\f' as \u0008
// and \u000c, like every other control character.
const shortBF = false
