"""Possible-worlds interpretation of programs over uncertain data.

Pipeline: parse a mini-language program, translate it into an immutable
event program, ground the loops, build a shared-subexpression event network,
and compute exact or anytime-approximate probabilities of selected events by
depth-first Shannon expansion, sequentially or with parallel workers.  An
exhaustive per-world oracle provides ground truth and the naive baseline.
"""

from .events import U, VU, Declarations, VarTable, world_probability
from .eventprog import (
    EventProgram, GroundedProgram, emit_event_program, ground, ground_folded,
    parse_event_program,
)
from .network import EventNetwork, MaskState, build_network
from .compile import CompileResult, compile_targets
from .distributed import max_job_count, run_distributed
from .oracle import (
    interpret_user_program, oracle_probabilities, per_world_report,
    world_reports,
)
from .userlang import parse_user_program, validate_user_program
from .translate import translate_to_event_program
from .datagen import Dataset, gen_correlations
from .kmedoids import build_kmedoids_program, direct_kmedoids, example_line_dataset

__all__ = [
    "U", "VU", "Declarations", "VarTable", "world_probability",
    "EventProgram", "GroundedProgram", "emit_event_program", "ground",
    "ground_folded", "parse_event_program", "EventNetwork", "MaskState",
    "build_network", "CompileResult", "compile_targets", "max_job_count",
    "run_distributed", "interpret_user_program", "oracle_probabilities",
    "per_world_report", "world_reports", "parse_user_program",
    "validate_user_program", "translate_to_event_program", "Dataset",
    "gen_correlations", "build_kmedoids_program", "direct_kmedoids",
    "example_line_dataset",
]
