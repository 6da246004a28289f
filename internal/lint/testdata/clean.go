// A fixture with zero findings: the sanctioned counterpart of a violation
// in the rule fixtures — sorted-key rendering of a map.
package fixture

import (
	"fmt"
	"sort"
	"strings"
)

func render(waits map[string]float64) string {
	domains := make([]string, 0, len(waits))
	for d := range waits {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	var b strings.Builder
	for _, d := range domains {
		fmt.Fprintf(&b, "%s %.2f\n", d, waits[d])
	}
	return b.String()
}
