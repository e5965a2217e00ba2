"""The per-layer metrics of the traced run.

Each metric is read from the tracer's totals for one pass: `_s` is the self
time of a span name (its time minus timed child spans), in calibrated
seconds; `_calls` and the sizes are exact counts.  Each row also names the
workloads on which the metric must be non-zero (the self-test checks it)
and the end-to-end figures a change in it should move.
"""

from __future__ import annotations

# name, unit, better, (kind, key), workloads where it must be non-zero, moves
_O, _V, _C = "oracle", "verify", "census"

PER_LAYER = [
    ("oracle.sieve_s", "s", "lower", ("self", "oracle.sieve"), (_O, _V), "setup_s, orbit_s, verify_counts_s"),
    ("oracle.sieve_calls", "count", "lower", ("calls", "oracle.sieve"), (_O, _V), "setup_s, orbit_s, verify_counts_s"),
    ("oracle.build_s", "s", "lower", ("self", "oracle.build"), (_O, _V), "orbit_s, verify_counts_s"),
    ("oracle.build_calls", "count", "lower", ("calls", "oracle.build"), (_O, _V), "orbit_s, verify_counts_s"),
    ("oracle.build_rows", "count", "lower", ("size", "oracle.build_rows"), (_O, _V), "orbit_s, verify_counts_s"),
    ("oracle.apply_s", "s", "lower", ("self", "oracle.apply"), (_O, _V), "burnside_s, verify_eps_s, verify_counts_s"),
    ("oracle.apply_calls", "count", "lower", ("calls", "oracle.apply"), (_O, _V), "burnside_s, verify_eps_s, verify_counts_s"),
    ("oracle.apply_rows", "count", "lower", ("size", "oracle.apply_rows"), (_O, _V), "burnside_s, verify_eps_s, verify_counts_s"),
    ("oracle.kappa_stable_s", "s", "lower", ("self", "oracle.kappa_stable"), (_O, _V), "burnside_s"),
    ("oracle.kappa_stable_calls", "count", "lower", ("calls", "oracle.kappa_stable"), (_O, _V), "burnside_s"),
    ("oracle.stable_rows", "count", "higher", ("size", "oracle.stable_rows"), (_O, _V), "burnside_s"),
    ("oracle.stable_ratio", "ratio", "higher", ("ratio", "oracle.stable_rows", "oracle.tested_rows"), (_O, _V), "burnside_s"),
    ("oracle.dest_flip_s", "s", "lower", ("self", "oracle.dest_flip"), (_O, _V), "orbit_s"),
    ("oracle.dest_flip_calls", "count", "lower", ("calls", "oracle.dest_flip"), (_O, _V), "orbit_s"),
    ("oracle.orbit_self_s", "s", "lower", ("self", "oracle.orbit"), (_O,), "orbit_s"),
    ("oracle.burnside_self_s", "s", "lower", ("self", "oracle.burnside"), (_O,), "burnside_s"),
    ("oracle.action_steps", "count", "lower", ("size", "oracle.action_steps"), (_O,), "burnside_s"),
    ("moebius.enumerate_pgl_s", "s", "lower", ("self", "moebius.enumerate_pgl"), (_O, _V), "burnside_s, verify_eps_s"),
    ("moebius.enumerate_pgl_calls", "count", "lower", ("calls", "moebius.enumerate_pgl"), (_O, _V), "burnside_s, verify_eps_s"),
    ("moebius.group_elems", "count", "lower", ("size", "moebius.group_elems"), (_O, _V), "burnside_s, verify_eps_s"),
    ("moebius.mat_mul_calls", "count", "lower", ("calls", "moebius.mat_mul"), (_V,), "verify_cocycle_s"),
    ("moebius.canonical_matrix_calls", "count", "lower", ("calls", "moebius.canonical_matrix"), (_V,), "verify_cocycle_s"),
    ("moebius.act_point_calls", "count", "lower", ("calls", "moebius.act_point"), (_V,), "verify_other_s"),
    ("moebius.fixed_points_calls", "count", "lower", ("calls", "moebius.fixed_points"), (_V,), "verify_eps_s, verify_other_s"),
    ("nset.act_form_s", "s", "lower", ("self", "nset.act_form"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("nset.act_form_calls", "count", "lower", ("calls", "nset.act_form"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("nset.apply_moebius_calls", "count", "lower", ("calls", "nset.apply_moebius"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("nset.stabilizer_s", "s", "lower", ("self", "nset.stabilizer"), (_V,), "verify_cocycle_s, verify_other_s"),
    ("nset.stabilizer_calls", "count", "lower", ("calls", "nset.stabilizer"), (_V,), "verify_cocycle_s, verify_other_s"),
    ("multiplier.epsilon_s", "s", "lower", ("self", "multiplier.epsilon"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("multiplier.epsilon_calls", "count", "lower", ("calls", "multiplier.epsilon"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("multiplier.epsilon_closed_form_s", "s", "lower", ("self", "multiplier.epsilon_closed_form"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("multiplier.epsilon_closed_form_calls", "count", "lower", ("calls", "multiplier.epsilon_closed_form"), (_V,), "verify_eps_s, verify_cocycle_s"),
    ("multiplier.kappa_multiplier_s", "s", "lower", ("self", "multiplier.kappa_multiplier"), (_V,), "verify_cocycle_s"),
    ("multiplier.kappa_multiplier_calls", "count", "lower", ("calls", "multiplier.kappa_multiplier"), (_V,), "verify_cocycle_s"),
    ("field.mul_calls", "count", "lower", ("calls", "field.mul"), (_V,), "verify_cocycle_s, verify_eps_s"),
    ("field.add_calls", "count", "lower", ("calls", "field.add"), (_V,), "verify_cocycle_s, verify_eps_s"),
    ("field.inv_calls", "count", "lower", ("calls", "field.inv"), (_V,), "verify_cocycle_s, verify_eps_s"),
    ("field.pw_calls", "count", "lower", ("calls", "field.pw"), (_V,), "verify_cocycle_s, verify_eps_s"),
    ("field.make_field_s", "s", "lower", ("self", "field.make_field"), (_O, _V), "setup_s, verify_other_s"),
    ("field.make_field_calls", "count", "lower", ("calls", "field.make_field"), (_O, _V), "setup_s, verify_other_s"),
    ("field.extend_s", "s", "lower", ("self", "field.extend"), (_V,), "setup_s, verify_other_s"),
    ("field.extend_calls", "count", "lower", ("calls", "field.extend"), (_V,), "setup_s, verify_other_s"),
    ("census.hyp_s", "s", "lower", ("self", "census.hyp"), (_C,), "census_qps"),
    ("census.hyp_calls", "count", "lower", ("calls", "census.hyp"), (_C,), "census_qps"),
    ("census.sd_s", "s", "lower", ("self", "census.sd"), (_C,), "census_qps"),
    ("census.sd_calls", "count", "lower", ("calls", "census.sd"), (_C,), "census_qps"),
    ("census.factor_prime_power_calls", "count", "lower", ("calls", "census.factor_prime_power"), (_O, _V, _C), "census_qps"),
    ("symbolic.build_s", "s", "lower", ("self", "symbolic.build"), (_C,), "symbolic_build_per_s"),
    ("symbolic.build_calls", "count", "lower", ("calls", "symbolic.build"), (_C,), "symbolic_build_per_s"),
    ("symbolic.terms", "count", "lower", ("size", "symbolic.terms"), (_C,), "symbolic_build_per_s"),
    ("symbolic.evaluate_s", "s", "lower", ("self", "symbolic.evaluate"), (_C,), "symbolic_eval_per_s"),
    ("symbolic.evaluate_calls", "count", "lower", ("calls", "symbolic.evaluate"), (_C,), "symbolic_eval_per_s"),
    ("trace.pass_s", "s", "lower", ("pass", None), (_O, _V, _C), "(traced pass time; overhead against pass_s)"),
]


def layer_value(source: tuple, calls: dict, self_s: dict, sizes: dict) -> float:
    kind, key = source[0], source[1]
    if kind == "self":
        return self_s.get(key, 0.0)
    if kind == "calls":
        return calls.get(key, 0)
    if kind == "size":
        return sizes.get(key, 0)
    if kind == "ratio":
        den = sizes.get(source[2], 0)
        return sizes.get(key, 0) / den if den else 0.0
    raise ValueError(kind)
