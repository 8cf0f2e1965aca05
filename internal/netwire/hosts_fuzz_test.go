package netwire

import (
	"strings"
	"testing"
)

// FuzzParseHosts feeds arbitrary hosts files to the parser: it must never
// panic, and an accepted file must yield at least one host and only
// non-empty entries free of whitespace and comments.
func FuzzParseHosts(f *testing.F) {
	for _, file := range []string{
		"127.0.0.2\n127.0.0.3:9000\n",
		"# rank 0\nnode-a  # trailing comment\n\n\tnode-b\n",
		"host a\n",
		"#\n \n",
		"",
		"\r\n[::1]:7000\r\n",
	} {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, file string) {
		hosts, err := ParseHosts(strings.NewReader(file))
		if err != nil {
			return
		}
		if len(hosts) == 0 {
			t.Fatalf("ParseHosts(%q) accepted a file with no hosts", file)
		}
		for i, h := range hosts {
			if h == "" || strings.TrimSpace(h) != h || strings.ContainsAny(h, " \t#") {
				t.Fatalf("ParseHosts(%q): entry %d is %q", file, i, h)
			}
		}
	})
}
