// Gocheck: model-check real Go source with regularly annotated set
// constraints. The double-lock property is parametric in the mutex
// (§6.4's substitution environments label each receiver separately), and
// defer is handled by expansion at every return.
package main

import (
	"fmt"

	"rasc/internal/core"
	"rasc/internal/gosrc"
)

const buggy = `
package demo

import "sync"

var mu sync.Mutex

func risky() {
	mu.Lock()
	if shortcut() {
		return // forgot to unlock on this path
	}
	mu.Unlock()
}

func main() {
	risky()
	mu.Lock() // deadlocks when risky took the shortcut
	mu.Unlock()
}
`

const fixed = `
package demo

import "sync"

var mu sync.Mutex

func safe() {
	mu.Lock()
	defer mu.Unlock()
	if shortcut() {
		return // the deferred unlock covers this path
	}
	work()
}

func main() {
	safe()
	mu.Lock()
	mu.Unlock()
}
`

const twoMutexes = `
package demo

import "sync"

var a, b sync.Mutex

func main() {
	a.Lock()
	b.Lock() // a different mutex: not a double lock
	b.Unlock()
	a.Unlock()
}
`

func main() {
	for _, c := range []struct{ name, src string }{
		{"buggy", buggy}, {"fixed (defer)", fixed}, {"two mutexes", twoMutexes},
	} {
		res, err := gosrc.Check(c.src, gosrc.DoubleLockProperty(), gosrc.DoubleLockEvents(), "main", core.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s: %d violation(s)\n", c.name, len(res.Violations()))
		for _, v := range res.Violations() {
			fmt.Printf("   %s (mutex %s)\n", v.String(), v.Label)
			for _, tp := range v.Trace {
				fmt.Printf("      via %s:%d\n", tp.Fn, tp.Line)
			}
		}
	}

	// File-leak checking with the same machinery.
	leaky := `
package demo

import "os"

func main() {
	f, err := os.Open("a.txt")
	if err != nil {
		return
	}
	g, _ := os.Open("b.txt")
	g.Close()
	use(f)
}
`
	res, err := gosrc.Check(leaky, gosrc.FileLeakProperty(), gosrc.FileLeakEvents(), "main", core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("== file leak: possibly open at exit:", res.OpenInstancesAtExit("main"))
}
