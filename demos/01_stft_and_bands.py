#!/usr/bin/env python3
"""A tour of the analysis front end.

Builds a test tone, walks it through the Hann STFT, shows that the
one-third-octave band layout puts the tone's energy where it belongs, and
checks perfect reconstruction through the synthesis path.
"""

import numpy as np

from envgain import StftConfig, analyze, build_band_layout, envelopes, synth_tone, synthesize

cfg = StftConfig()
layout = build_band_layout()

print("band layout (fs = 10 kHz, K = 256):")
for j, band in enumerate(layout.bands):
    lo = band.center_hz / 2 ** (1 / 6)
    hi = band.center_hz * 2 ** (1 / 6)
    print(f"  band {j:2d}: center {band.center_hz:7.1f} Hz, "
          f"edges [{lo:7.1f}, {hi:7.1f}), bins {band.k1:3d}..{band.k2 - 1:3d}")

# a 1 kHz tone should land in the band whose edges straddle 1 kHz
tone = synth_tone(1000.0, 0.5, 0.4)
spec = analyze(tone, cfg)  # complex (frames, 129) spectrum
env = envelopes(np.abs(spec), layout)
energies = env.mean(axis=1)
print(f"\n1 kHz tone: strongest band = {int(np.argmax(energies))} "
      f"(center {layout.bands[int(np.argmax(energies))].center_hz:.0f} Hz)")

# round trip: interior samples come back to machine precision
rng = np.random.default_rng(0)
x = rng.standard_normal(4 * 256)
out = synthesize(analyze(x, cfg), cfg).samples
interior = slice(256, len(out) - 256)
err = np.max(np.abs(out[interior] - x[: len(out)][interior]))
print(f"reconstruction error on the interior: {err:.2e} (relative to peak "
      f"{err / np.max(np.abs(x)):.2e})")
