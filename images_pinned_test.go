package repro

// Every program image the repository builds from Go, pinned by one digest.
// The images are the contract between the builders and everything that
// reads a binary (the translator, the run digest, the translation store's
// key): a change to how images are linked must leave every one of them
// byte-identical, text, data, symbols, line table, host-import order,
// entry and TLS size alike.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cilk"
	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/heat"
	"repro/internal/lulesh"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/progs"
	"repro/internal/tools/archer"
	"repro/internal/tools/romp"
	"repro/internal/tools/tasksan"
	"repro/internal/tstore"
)

// imagesDigest is the SHA-256 over the tstore.ImageHash of every image
// pinnedImages lists, in its order.
const imagesDigest = "284500b0aa41654236628632a6a2a0f5614866dca85040543b8a821f3432e5c2"

// userDigest is the tstore.ImageHash of emitUser's program on the OpenMP
// prelude, whose symbols share addresses, as linked when every program
// emitted its own copy of the prelude.
const userDigest = "ac252b63122cb8ae9df07979fd7041e709274ead1d502e7202950fe308a81630"

// pinnedImage names one program build.
type pinnedImage struct {
	name  string
	build func() (*gbuild.Builder, error)
}

// pinnedImages lists every image the repository builds from Go: the
// built-in programs by name, the Table I suites, the lock suite, heat in
// each variant, Cilk fib, and LULESH at three sizes, racy and correct, with
// few and many tasks per loop.
func pinnedImages() []pinnedImage {
	var out []pinnedImage
	add := func(name string, build func() (*gbuild.Builder, error)) {
		out = append(out, pinnedImage{name, build})
	}
	for _, name := range progs.Names() {
		add(name, func() (*gbuild.Builder, error) { return progs.Build(name, lulesh.DefaultParams()) })
	}
	for _, bm := range append(drb.All(), drb.LockSuite()...) {
		add(bm.Name, func() (*gbuild.Builder, error) { return bm.Build(), nil })
	}
	for _, v := range []heat.Version{heat.Serial, heat.RacyTasks, heat.FixedTasks} {
		add("heat-"+v.String(), func() (*gbuild.Builder, error) {
			return heat.Build(v, heat.Params{N: 64, Chunks: 4, Iters: 6})
		})
	}
	for _, racy := range []bool{false, true} {
		add(fmt.Sprintf("cilk-fib-racy=%v", racy), func() (*gbuild.Builder, error) { return cilkFib(racy), nil })
	}
	for _, s := range []int{4, 16, 24} {
		for _, racy := range []bool{false, true} {
			for _, tn := range []int{4, 64} {
				p := lulesh.Params{S: s, TEL: tn, TNL: tn, Iters: 2, Racy: racy}
				add(fmt.Sprintf("lulesh-%+v", p), func() (*gbuild.Builder, error) { return lulesh.Build(p) })
			}
		}
	}
	return out
}

// cilkFib is Cilk fib(8) with spawn and sync; the racy variant reads the
// children's results before the sync.
func cilkFib(racy bool) *gbuild.Builder {
	const r0, r1, r2, r3, r9 = guest.R0, guest.R1, guest.R2, guest.R3, guest.R9
	b := cilk.NewProgram(4)
	f := b.Func("cilk_fib", "fib.c")
	f.Line(5)
	f.Enter(48)
	f.Ld(8, r1, r0, 0) // n
	f.Ld(8, r2, r0, 8) // result*
	f.StLocal(8, 8, r1)
	f.StLocal(8, 16, r2)
	rec := f.NewLabel()
	f.Ldi(r3, 2)
	f.Bge(r1, r3, rec)
	f.St(8, r2, 0, r1)
	f.Leave()
	f.Bind(rec)
	fill := func(delta, off int32) func(*gbuild.Func, uint8) {
		return func(f *gbuild.Func, p uint8) {
			f.LdLocal(8, r9, 8)
			f.Addi(r9, r9, -delta)
			f.St(8, p, 0, r9)
			f.LocalAddr(r9, off)
			f.St(8, p, 8, r9)
		}
	}
	cilk.Spawn(f, "cilk_fib", 16, fill(1, 24))
	cilk.Spawn(f, "cilk_fib", 16, fill(2, 32))
	if !racy {
		cilk.Sync(f)
	}
	f.Line(12)
	f.LdLocal(8, r1, 24)
	f.LdLocal(8, r2, 32)
	f.Add(r1, r1, r2)
	f.LdLocal(8, r2, 16)
	f.St(8, r2, 0, r1)
	f.Leave()

	f = b.Func("cilk_main", "fib.c")
	f.Enter(16)
	f.Addi(guest.SP, guest.SP, -16)
	f.Ldi(r1, 8)
	f.St(8, guest.SP, 0, r1)
	f.LocalAddr(r1, 8)
	f.St(8, guest.SP, 8, r1)
	f.Mov(r0, guest.SP)
	f.Call("cilk_fib")
	f.Addi(guest.SP, guest.SP, 16)
	f.LdLocal(8, r1, 8)
	cilk.Exit(f, r1)
	f.Leave()
	return b
}

func linkPinned(p pinnedImage) (*guest.Image, error) {
	b, err := p.build()
	if err != nil {
		return nil, fmt.Errorf("%s: %v", p.name, err)
	}
	im, err := b.Link()
	if err != nil {
		return nil, fmt.Errorf("%s: %v", p.name, err)
	}
	return im, nil
}

// emitUser emits a program through every builder feature a program can
// combine with the OpenMP prelude: globals of odd sizes and a zero-size one,
// TLS, line records, a zero-size function, forward calls, calls and symbol
// loads that name prelude functions, host calls the prelude imports and
// ones it does not, the task and lock constructs, and a non-main entry.
func emitUser(b *gbuild.Builder) {
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2
	b.GlobalInit("odd", []byte{1, 2, 3})
	b.Global("empty", 0)
	b.GlobalU64("word", 42)
	b.GlobalString("msg", "hello\n")
	b.Global("lock", 8)
	b.Global("cond", 8)
	b.TLSGlobal("tls_counter", 8)

	f := b.Func("body", "user.c")
	f.Line(3)
	f.Ld(8, r1, r0, 0)
	f.Addi(r1, r1, 1)
	f.St(8, r0, 0, r1)
	f.Hcall("print_i64")
	f.Ret()

	b.Func("nothing", "user.c")

	f = b.Func("micro", "user.c")
	f.Enter(16)
	fn := f
	omp.Single(f, func() {
		fn.Line(10)
		omp.EmitTask(fn, omp.TaskOpts{
			Fn: "body", PayloadBytes: 8,
			Fill: func(f *gbuild.Func, p uint8) { f.LoadSym(r2, "word"); f.St(8, p, 0, r2) },
			Deps: []omp.Dep{omp.DepSym(ompt.DepOut, "word"), omp.DepSymOff(ompt.DepIn, "odd", 1), omp.DepLocal(ompt.DepInout, 8)},
		})
		omp.Taskwait(fn)
		omp.Taskgroup(fn, func() { omp.EmitTask(fn, omp.TaskOpts{Fn: "later"}) })
		omp.TaskwaitDeps(fn, []omp.Dep{omp.DepSym(ompt.DepIn, "word")})
	})
	omp.Critical(f, 3, func() { f.Call("nothing") })
	omp.WithMutex(f, "lock", func() { omp.CondSignal(fn, "cond") })
	omp.ForStatic(f, 16, func(idx uint8) { f.Mov(r0, idx) })
	omp.Barrier(f)
	f.LoadSym(r1, "__kmpc_omp_taskwait")
	f.Leave()

	f = b.Func("start", "user.c")
	f.Line(20)
	f.Enter(0)
	omp.MutexInit(f, "lock")
	omp.CondInit(f, "cond")
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 4)
	f.Ld(8, r0, guest.TP, int32(b.TLSOffset("tls_counter")))
	f.Hcall("malloc")
	f.Call("omp_get_num_threads")
	f.Hlt(r0)

	f = b.Func("later", "user.c")
	f.Line(30)
	f.Hcall("__kmp_get_thread_num")
	f.Ret()
	b.SetEntry("start")
}

// TestImagesPinned pins every image the repository builds from Go, checks
// that a program started with omp.NewProgram links to the image it would
// have had with the prelude emitted into a fresh builder, and builds and
// links every program from 8 goroutines at once, as concurrent daemon
// workers do.
func TestImagesPinned(t *testing.T) {
	list := pinnedImages()
	want := make([]string, len(list))
	h := sha256.New()
	for i, p := range list {
		im, err := linkPinned(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tstore.ImageHash(im)
		h.Write([]byte(want[i]))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != imagesDigest {
		t.Errorf("digest over %d images %s, pinned %s", len(list), got, imagesDigest)
	}

	fresh := gbuild.New()
	omp.EmitPrelude(fresh)
	emitUser(fresh)
	shared := omp.NewProgram()
	emitUser(shared)
	var hashes [2]string
	for i, b := range []*gbuild.Builder{fresh, shared} {
		im, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = tstore.ImageHash(im)
	}
	if hashes[0] != userDigest || hashes[1] != userDigest {
		t.Errorf("omp.NewProgram image %s, gbuild.New plus omp.EmitPrelude %s, pinned %s", hashes[1], hashes[0], userDigest)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at its own offset, so different programs
			// and the same program are both built at once.
			for i := range list {
				k := (i + w*len(list)/workers) % len(list)
				im, err := linkPinned(list[k])
				if err == nil && tstore.ImageHash(im) != want[k] {
					err = fmt.Errorf("%s: image differs when built concurrently", list[k].name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLinkTwice links one builder twice: Link must leave the builder as
// it found it, so the second image equals the first and the first is not
// changed by the second link.
func TestLinkTwice(t *testing.T) {
	bm, ok := drb.ByName("079-taskdep3-orig")
	if !ok {
		t.Fatal("079-taskdep3-orig not found")
	}
	b := bm.Build()
	first, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	h1 := tstore.ImageHash(first)
	second, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if h2 := tstore.ImageHash(second); h2 != h1 {
		t.Errorf("second link: image %s (%d symbols), first %s (%d symbols)", h2, len(second.Symbols), h1, len(first.Symbols))
	}
	if h := tstore.ImageHash(first); h != h1 {
		t.Errorf("first image changed by the second link: %s, was %s", h, h1)
	}
}

// TestSymbolFilterMatchesSymbolFor holds dbi.SymbolFilter, which fills the
// filter once per symbol, to a per-instruction lookup with
// Image.SymbolFor, on every pinned image and one whose functions and
// globals share addresses, with the scopes of Archer, TaskSanitizer and
// ROMP.
func TestSymbolFilterMatchesSymbolFor(t *testing.T) {
	tools := []struct {
		name string
		tool dbi.CompileTimeTool
	}{{"archer", archer.New()}, {"tasksan", tasksan.New()}, {"romp", romp.New()}}
	images := pinnedImages()
	images = append(images, pinnedImage{"user", func() (*gbuild.Builder, error) {
		b := omp.NewProgram()
		emitUser(b)
		return b, nil
	}})
	for _, p := range images {
		im, err := linkPinned(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range tools {
			got := dbi.SymbolFilter(im, tl.tool.InstrumentsSym)
			for i := range im.Text {
				name := ""
				if s := im.SymbolFor(guest.TextBase + uint64(i)*guest.InstrBytes); s != nil {
					name = s.Name
				}
				if want := tl.tool.InstrumentsSym(name); got[i] != want {
					t.Fatalf("%s under %s: instruction %d (%q) filtered %v, want %v", p.name, tl.name, i, name, got[i], want)
				}
			}
		}
	}
}
