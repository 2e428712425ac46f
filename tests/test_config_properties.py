"""Property tests for the config key table: the metadata echo parses back."""

from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from kdvlab.config import (
    GAMMA_MODES,
    REFINE_MODES,
    SCHEMES,
    ConvergeConfig,
    RunConfig,
    parse_config,
    parse_converge_config,
)

positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
# '#' and line breaks are reserved by the file format, and values are
# stripped, so echoed text must not carry either.
text = st.text(
    alphabet=st.characters(codec="ascii", min_codepoint=32, exclude_characters="#"),
    min_size=1,
).map(str.strip).filter(bool)


@st.composite
def run_configs(draw):
    x_min = draw(st.floats(min_value=-1e6, max_value=1e6))
    x_max = draw(st.floats(min_value=x_min, max_value=2e6, exclude_min=True))
    t_end = draw(positive)
    ic_kind = draw(st.sampled_from(["appendix", "paper-eq2", "traveling", "file"]))
    ic_value = {"appendix": st.none(), "file": text}.get(ic_kind, positive)
    times = draw(st.lists(st.floats(min_value=0.0, max_value=t_end), max_size=5))
    output_dir = draw(text.map(Path).filter(lambda p: str(p) == str(p).strip()))
    return RunConfig(
        scheme=draw(st.sampled_from(SCHEMES)),
        gamma_mode=draw(st.sampled_from(GAMMA_MODES)),
        x_min=x_min,
        x_max=x_max,
        nx=draw(st.integers(min_value=7, max_value=10**9)),
        dt=draw(positive),
        t_end=t_end,
        ic_kind=ic_kind,
        ic_value=draw(ic_value),
        snapshot_times=tuple(sorted(times)),
        paper_normalization=draw(st.booleans()),
        output_dir=output_dir,
    )


@given(run_configs())
def test_run_echo_round_trips(cfg):
    cfg.validate()
    lines = cfg.echo_lines()
    assert parse_config("\n".join(lines)) == cfg
    # the same settings given as command-line override pairs
    assert parse_config("", [line.split(" = ", 1) for line in lines]) == cfg


@st.composite
def converge_configs(draw):
    run = draw(run_configs())
    # the study needs t_end to be a whole number of steps
    steps = draw(st.integers(min_value=1, max_value=1000))
    return ConvergeConfig(
        **{name: getattr(run, name) for name in RunConfig.defaults
           if name not in ("t_end", "snapshot_times")},
        t_end=run.dt * steps,
        levels=draw(st.integers(min_value=1, max_value=10**9)),
        refine=draw(st.sampled_from(REFINE_MODES)),
    )


@given(converge_configs())
def test_converge_echo_round_trips(cfg):
    cfg.validate()
    lines = cfg.echo_lines()
    assert parse_converge_config("\n".join(lines)) == cfg
    assert parse_converge_config("", [line.split(" = ", 1) for line in lines]) == cfg
