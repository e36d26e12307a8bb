#!/usr/bin/env python3
"""Upper bound: enhancement with ideal band gains.

Bypasses the networks entirely and applies the oracle gain min(1, X/Y) per
band and frame, which is the best any uniform-within-band gain system in
this family can do. The envelope correlation score climbs accordingly.
The analysis and band layout are the fixed ones, so nothing is configured.
"""

from envgain import mix_at_snr, pseudo_corpus, pseudo_speech, synth_ssn
from envgain.pipeline import enhance_with_band_gains, oracle_band_gains, score_elc

clean = pseudo_speech(3.0, seed=11)
noise = synth_ssn(pseudo_corpus(6, 8.0, seed=12), 30.0, seed=13)

print("SNR    unprocessed ELC    oracle-gain ELC")
for snr in (-5.0, 0.0, 5.0):
    noisy, _ = mix_at_snr(clean, noise, snr, rng=14)
    gains = oracle_band_gains(clean, noisy)
    enhanced = enhance_with_band_gains(noisy, gains)
    print(f"{snr:+5.1f}       {score_elc(clean, noisy):6.4f}            "
          f"{score_elc(clean, enhanced):6.4f}")
