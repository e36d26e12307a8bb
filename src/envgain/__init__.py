"""envgain: speech enhancement driven by one-third-octave envelope correlation.

Library layout::

 signal_io -- WAV read/write, resampling to 10 kHz, test tones
 stft      -- Hann STFT analysis/synthesis and spectral gains
 octave    -- band layout, temporal envelopes, gain back-mapping
 cost      -- envelope correlation (ELC) / envelope MSE objectives + gradients
 neural    -- from-scratch MLP, batch norm, SGD trainer, model files
 framed    -- the checked magic/version/CRC32 frame of the binary files
 mixing    -- active-level SNR mixing, noise synthesis, dataset assembly
 fanout    -- the one thread-pool fan-out of inference, training and loading
 modeldir  -- the model-directory format: system.txt, feature norm, networks
 pipeline  -- systems of every kind, enhancement, scoring, evaluation tables
 baseline  -- the classical spectral-magnitude MSE baseline's data and trainer
"""

from .cost import elc, elc_grad_norm
from .mixing import (
    active_speech_level,
    build_dataset,
    mix_at_snr,
    pseudo_corpus,
    pseudo_speech,
    split_noise,
    synth_babble,
    synth_ssn,
)
from .octave import (
    BandLayout,
    average_overlapping_gains,
    band_gains_to_stft_gains,
    build_band_layout,
    envelopes,
)
from .pipeline import (
    EnhancementSystem,
    enhance,
    gain_correlation,
    load_system,
    report_tables,
    save_system,
    score_elc,
    train_enhancement_system,
)
from .signal_io import WORKING_RATE_HZ, TimeSignal, read_wav, synth_tone, to_working_rate, write_wav
from .stft import StftConfig, analyze, apply_gain, synthesize

__version__ = "0.1.0"

__all__ = [
    "WORKING_RATE_HZ",
    "TimeSignal",
    "read_wav",
    "write_wav",
    "to_working_rate",
    "synth_tone",
    "StftConfig",
    "analyze",
    "synthesize",
    "apply_gain",
    "BandLayout",
    "build_band_layout",
    "envelopes",
    "band_gains_to_stft_gains",
    "average_overlapping_gains",
    "elc",
    "elc_grad_norm",
    "active_speech_level",
    "mix_at_snr",
    "synth_ssn",
    "synth_babble",
    "split_noise",
    "pseudo_speech",
    "pseudo_corpus",
    "build_dataset",
    "EnhancementSystem",
    "train_enhancement_system",
    "enhance",
    "score_elc",
    "gain_correlation",
    "report_tables",
    "save_system",
    "load_system",
]
