import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zipfks import observations
from zipfks.distribution import RandomStream, Support, ZipfModel, sample
from zipfks.observations import (
    ObservationParseError,
    parse_observations,
    write_observations,
)

from oracles import token_loop_observations


def test_reads_whitespace_separated_values(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("1 2 3\n4")
    assert parse_observations(path).observations.tolist() == [1, 2, 3, 4]


def test_mixed_whitespace_and_blank_lines(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("  7\t8\n\n9  \n")
    assert parse_observations(path).observations.tolist() == [7, 8, 9]


def test_zero_rejected_with_location(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("1 0 2")
    with pytest.raises(ObservationParseError, match=r"line 1, token 2"):
        parse_observations(path)


@pytest.mark.parametrize("token", ["-3", "2.5", "abc", "1e3", "0x10"])
def test_non_positive_integer_tokens_rejected(tmp_path, token):
    path = tmp_path / "obs.txt"
    path.write_text(f"5\n{token} 7")
    with pytest.raises(ObservationParseError, match="line 2, token 1"):
        parse_observations(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("\n  \n")
    with pytest.raises(ObservationParseError, match="no observations"):
        parse_observations(path)


def test_large_sample_round_trip(tmp_path):
    model = ZipfModel(2.0, Support.finite(100))
    drawn = sample(model, 50000, RandomStream.for_replicate(21, 0, 0))
    path = tmp_path / "big.txt"
    write_observations(drawn, path)
    back = parse_observations(path)
    np.testing.assert_array_equal(back.observations, drawn.observations)


def test_digit_that_int_does_not_read_rejected_with_location(tmp_path):
    # '²' passes str.isdigit but not int()
    path = tmp_path / "obs.txt"
    path.write_text("4 \u00b2 5\n", encoding="utf-8")
    with pytest.raises(ObservationParseError,
                       match=r"line 1, token 2: '²' is not a positive integer"):
        parse_observations(path)


def test_value_above_int64_rejected_with_location(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("3\n99999999999999999999 7\n")
    with pytest.raises(ObservationParseError,
                       match=r"line 2, token 1: '99999999999999999999' exceeds"):
        parse_observations(path)
    path.write_text("9223372036854775807 0009223372036854775807\n")  # 2^63 - 1 still reads
    assert parse_observations(path).observations.tolist() == [2**63 - 1] * 2


def test_ascii_files_skip_the_token_loop(tmp_path, monkeypatch):
    # tokens cut at every block edge, leading zeros and 18 digits all stay on the byte pass
    path = tmp_path / "obs.txt"
    path.write_text("007 123456789012345678\r\n\x0b\x0c 5\t\t16\n")
    monkeypatch.setattr(observations, "_BLOCK_BYTES", 4)
    monkeypatch.setattr(observations, "_parse_tokens", None)
    assert parse_observations(path).observations.tolist() == [7, 123456789012345678, 5, 16]


@pytest.mark.parametrize("text",
                         ["1 0 2", "1 00 2", "3 \x1c 4", "1234567890123456789", "5 \u0663", ""])
def test_byte_pass_refuses_what_the_token_loop_must_judge(tmp_path, text):
    # zeros, ASCII separators that str.split() alone knows, tokens of 19
    # digits, other scripts' digits and empty files all go to the token loop
    path = tmp_path / "obs.txt"
    path.write_text(text, encoding="utf-8")
    assert observations._parse_bytes(path) is None


SEPARATORS = st.sampled_from([" ", "\t", "\r", "\n", "\x0b", "\x0c", "\r\n", "\n\n", " \n \n",
                              "\u00a0", "\u0085", "\x1c"])
TOKENS = st.one_of(
    st.text("0123456789", min_size=1, max_size=19),  # leading zeros, zeros, up to 19 digits
    st.integers(1, 2**63 - 1).map(str),
    st.sampled_from(["\u0663", "1\u0663", "\u09ea2", "\u00b2", "-3", "1e3"]),
)


@st.composite
def observation_files(draw):
    tokens = draw(st.lists(TOKENS, max_size=30))
    seps = draw(st.lists(st.lists(SEPARATORS, min_size=1, max_size=3).map("".join),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=observation_files(), block=st.sampled_from([1, 2, 3, 5, 8, 19, 64, 1 << 16]))
def test_reader_matches_token_loop(tmp_path, text, block):
    path = tmp_path / "obs.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = token_loop_observations(path)
    except ObservationParseError as err:
        with pytest.raises(ObservationParseError) as got:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(observations, "_BLOCK_BYTES", block)
                parse_observations(path)
        assert str(got.value) == str(err)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observations, "_BLOCK_BYTES", block)
        got = parse_observations(path).observations
        on_bytes = observations._parse_bytes(path)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    # the byte pass takes every file of ASCII digits and whitespace whose
    # tokens are nonzero and at most 18 digits long
    simple = set(text) <= set("0123456789 \t\n\r\x0b\x0c") and max(map(len, text.split())) <= 18
    assert (on_bytes is not None) == simple
    if simple:
        np.testing.assert_array_equal(on_bytes, want)
