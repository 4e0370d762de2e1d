package deadcode

import "fmt"

// table is a package-level initializer: what it references runs whenever
// the package is linked.
var table = map[string]func() string{"v": viaTable}

func viaTable() string { return viaTableCallee() }

func viaTableCallee() string { return "" }

func init() {
	fromInit()
}

func fromInit() {}

// Shape is a module interface; Square satisfies it, so Area is a root
// whether or not anything calls it through Shape.
type Shape interface {
	Area() float64
}

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Label satisfies standard-library interfaces: fmt.Stringer, error, and
// io.Writer (through fmt's imports).
type Label string

func (l Label) String() string { return string(l) }

func (l Label) Error() string { return fmt.Sprint(string(l)) }

func (l Label) Write(p []byte) (int, error) { return len(p), nil }

// Oracle is kept for a caller outside every program; the directive makes
// it a root, so its callee is reached too.
//
//lint:allow deadcode — the fixture's stand-in for another package's test oracle
func Oracle() int {
	return oracleCallee()
}

func oracleCallee() int { return 1 }
