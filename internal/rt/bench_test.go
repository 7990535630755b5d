package rt

import (
	"testing"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/telemetry"
	"r2c/internal/workload"
)

// BenchmarkInstantiate prices process instantiation for the fleet's unit of
// work, the nginx request handler under full R2C: "fresh" loads the image
// and runs the BTDP constructor (NewProcessObserved), "clone" stamps the
// same process out of a template, and "clone-release" also hands each clone
// back, so the next one reuses its storage, as the fleet does per request.
// All attach a registry observer, as the fleet does. Run with -benchmem for
// allocs/op.
func BenchmarkInstantiate(b *testing.B) {
	const seed = 1
	prog, err := codegen.Compile(workload.NginxRequest(), defense.R2CFull(), seed)
	if err != nil {
		b.Fatal(err)
	}
	img, err := image.Link(prog, seed)
	if err != nil {
		b.Fatal(err)
	}
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry()}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewProcessObserved(img, seed, obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clone", func(b *testing.B) {
		tmpl, err := NewTemplate(img, seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tmpl.Clone(obs)
		}
	})
	b.Run("clone-release", func(b *testing.B) {
		tmpl, err := NewTemplate(img, seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tmpl.Clone(obs).Release()
		}
	})
}
