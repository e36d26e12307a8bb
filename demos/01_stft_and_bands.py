#!/usr/bin/env python3
"""A tour of the analysis front end.

Builds a test tone, walks it through the fixed Hann STFT (a 256-point FFT,
hop 128), shows that the one-third-octave band layout, built once as
`octave.LAYOUT`, puts the tone's energy where it belongs, and checks
perfect reconstruction through the synthesis path.
"""

import numpy as np

from envgain import analyze, envelopes, synth_tone, synthesize
from envgain.octave import LAYOUT
from envgain.stft import FFT_SIZE

print(f"band layout (fs = 10 kHz, K = {FFT_SIZE}):")
for j, band in enumerate(LAYOUT.bands):
    lo = band.center_hz / 2 ** (1 / 6)
    hi = band.center_hz * 2 ** (1 / 6)
    print(f"  band {j:2d}: center {band.center_hz:7.1f} Hz, "
          f"edges [{lo:7.1f}, {hi:7.1f}), bins {band.k1:3d}..{band.k2 - 1:3d}")

# a 1 kHz tone should land in the band whose edges straddle 1 kHz
tone = synth_tone(1000.0, 0.5, 0.4)
spec = analyze(tone)  # complex (frames, 129) spectrum
env = envelopes(np.abs(spec))
energies = env.mean(axis=1)
print(f"\n1 kHz tone: strongest band = {int(np.argmax(energies))} "
      f"(center {LAYOUT.bands[int(np.argmax(energies))].center_hz:.0f} Hz)")

# round trip: interior samples come back to machine precision
rng = np.random.default_rng(0)
x = rng.standard_normal(4 * 256)
out = synthesize(analyze(x)).samples
interior = slice(256, len(out) - 256)
err = np.max(np.abs(out[interior] - x[: len(out)][interior]))
print(f"reconstruction error on the interior: {err:.2e} (relative to peak "
      f"{err / np.max(np.abs(x)):.2e})")
