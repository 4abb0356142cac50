// Package randprog generates random synchronous Verilog modules for
// differential tests between evaluation tiers. Each module has a clock
// input clk and two 8-bit data inputs a and b; it exercises narrow
// arithmetic, wide (>64-bit) fallbacks and mixed-width writes.
package randprog

import (
	"fmt"
	"math/rand"
	"strings"
)

// Generate returns a random module named M drawn from r. With
// observable set the module also drives one output port o<i> from each
// register r<i> and $displays r0 on the rising edges where r0[0] and
// a[2:0] equal random constants; the draws for everything else are the
// same as without it.
func Generate(r *rand.Rand, observable bool) string {
	var sb strings.Builder
	var expr func(depth int, reads []string) string
	expr = func(depth int, reads []string) string {
		if depth <= 0 || r.Intn(4) == 0 {
			if r.Intn(3) == 0 {
				return fmt.Sprintf("%d'd%d", 1+r.Intn(14), r.Intn(1<<12))
			}
			return reads[r.Intn(len(reads))]
		}
		a, b := expr(depth-1, reads), expr(depth-1, reads)
		switch r.Intn(14) {
		case 0:
			return fmt.Sprintf("(%s + %s)", a, b)
		case 1:
			return fmt.Sprintf("(%s - %s)", a, b)
		case 2:
			return fmt.Sprintf("(%s * %s)", a, b)
		case 3:
			return fmt.Sprintf("(%s & %s)", a, b)
		case 4:
			return fmt.Sprintf("(%s | %s)", a, b)
		case 5:
			return fmt.Sprintf("(%s ^ %s)", a, b)
		case 6:
			return fmt.Sprintf("(%s >> %d)", a, r.Intn(10))
		case 7:
			return fmt.Sprintf("(%s << %d)", a, r.Intn(10))
		case 8:
			return fmt.Sprintf("(%s ? %s : %s)", expr(depth-1, reads), a, b)
		case 9:
			return fmt.Sprintf("{%s, %s}", a, b)
		case 10:
			return fmt.Sprintf("(%s < %s)", a, b)
		case 11:
			return fmt.Sprintf("(%s == %s)", a, b)
		case 12:
			return fmt.Sprintf("(~%s)", a)
		default:
			return fmt.Sprintf("(%s %% %s)", a, b)
		}
	}
	reads := []string{"a", "b"}
	nregs := 2 + r.Intn(3)
	widths := make([]int, nregs)
	var decl strings.Builder
	for i := 0; i < nregs; i++ {
		widths[i] = []int{1, 4, 8, 16, 32, 48, 80}[r.Intn(7)]
		fmt.Fprintf(&decl, "  reg [%d:0] r%d = %d;\n", widths[i]-1, i, r.Intn(100))
		reads = append(reads, fmt.Sprintf("r%d", i))
	}
	fmt.Fprintf(&sb, "module M(input wire clk, input wire [7:0] a, input wire [7:0] b")
	if observable {
		for i, w := range widths {
			fmt.Fprintf(&sb, ", output wire [%d:0] o%d", w-1, i)
		}
	}
	fmt.Fprintf(&sb, ");\n%s", decl.String())
	nwires := 1 + r.Intn(4)
	for i := 0; i < nwires; i++ {
		w := []int{1, 8, 13, 65}[r.Intn(4)]
		fmt.Fprintf(&sb, "  wire [%d:0] w%d;\n", w-1, i)
	}
	for i := 0; i < nwires; i++ {
		fmt.Fprintf(&sb, "  assign w%d = %s;\n", i, expr(3, reads))
		reads = append(reads, fmt.Sprintf("w%d", i))
	}
	for i := 0; i < nregs; i++ {
		fmt.Fprintf(&sb, "  always @(posedge clk)\n")
		if r.Intn(2) == 0 {
			fmt.Fprintf(&sb, "    if (%s)\n      r%d <= %s;\n    else\n      r%d <= %s;\n",
				expr(2, reads), i, expr(3, reads), i, expr(3, reads))
		} else {
			fmt.Fprintf(&sb, "    r%d <= %s;\n", i, expr(3, reads))
		}
	}
	if observable {
		for i := range widths {
			fmt.Fprintf(&sb, "  assign o%d = r%d;\n", i, i)
		}
		fmt.Fprintf(&sb, "  always @(posedge clk)\n    if (r0[0:0] == 1'd%d && a[2:0] == 3'd%d)\n      $display(\"r0=%%d\", r0);\n", r.Intn(2), r.Intn(8))
	}
	fmt.Fprintf(&sb, "endmodule\n")
	return sb.String()
}
