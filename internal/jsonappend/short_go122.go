//go:build go1.22

package jsonappend

// shortBF: encoding/json escapes '\b' and '\f' as \b and \f since Go 1.22.
const shortBF = true
