"""Encrypted state observer with sparse sensor-attack detection on ciphertexts."""

from .modring import (
    ModMatrix,
    Modulus,
    cmod,
    inverse_mod,
    mat_mul_mod,
)
from .plantsim import AttackScenario, AttackSegment, PlantModel, Trajectory, \
    load_scenario, run_closed_loop, step_plant
from .obsdesign import ObserverBank, build_bank, canonical_decomposition, \
    observability_index, residue_map, run_reference_observer
from .quantobs import QuantParams, detect, make_params, quantize_initial, \
    quantize_input, residue_quantized, step_quantized, validate_params
from .lwe import Ciphertext, CiphertextKind, NoiseParams, SecretKey, \
    SecureRng, TestRng, keygen
from .zerodyn import ChannelMaps, channel_maps
from .encobs import EncryptorSession, EncObserverState, ObserverPublic, \
    disclose_residue, recover_encrypted_state, residue_first_column, \
    step_encrypted
from .secviews import View1, View2, f1_view1_to_view2, f2_view2_to_view1
from .pipeline import SystemSetup, bundled_scenario_path, run_encrypted_mode, \
    run_quantized_mode, run_reference_mode

__version__ = "0.1.0"
