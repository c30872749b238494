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

DEFAULT_BLOCK = observations._BLOCK_BYTES


def assert_pairs(got, observations_):
    """got is the sorted (value, count) reduction of the observations, in int64."""
    for part, want in zip(got, np.unique(observations_, return_counts=True), strict=True):
        assert part.dtype == np.int64
        np.testing.assert_array_equal(part, want)


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
    np.testing.assert_array_equal(back.observations, np.sort(drawn.observations))
    for got, want in zip(back.distinct, drawn.distinct):
        np.testing.assert_array_equal(got, want)


def test_invalid_utf8_named_by_line_and_token(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_bytes(b"1 2\r\n3 4\xff 5\n")
    with pytest.raises(ObservationParseError,
                       match=r"obs.txt: line 2, token 2: b'4\\xff' is not UTF-8$"):
        parse_observations(path)


def test_token_loop_counts_each_value_once(tmp_path):
    # a Unicode space sends the file to the token loop, which returns the same pairs
    path = tmp_path / "obs.txt"
    path.write_text("3\u00a03 70000 1\n\n3 9223372036854775807 70000\n", encoding="utf-8")
    assert observations._parse_bytes(path) is None
    got = parse_observations(path)
    assert got.n == 7 and got.observations.tolist() == [1, 3, 3, 3, 70000, 70000, 2**63 - 1]
    assert_pairs(got.distinct, [3, 3, 70000, 1, 3, 2**63 - 1, 70000])


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
    assert parse_observations(path).observations.tolist() == [5, 7, 16, 123456789012345678]


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
        got = parse_observations(path)
        on_bytes = observations._parse_bytes(path)
    assert got.observations.dtype == np.int64 and got.n == want.size
    np.testing.assert_array_equal(got.observations, np.sort(want))  # the multiset, sorted
    # the byte pass takes every file of ASCII digits and whitespace whose
    # tokens are nonzero and at most 18 digits long
    simple = set(text) <= set("0123456789 \t\n\r\x0b\x0c") and max(map(len, text.split())) <= 18
    assert (on_bytes is not None) == simple
    if simple:
        assert_pairs(on_bytes, want)


# Files the byte pass reads, and a few it refuses: repeated small values,
# values above 65535, 18-digit values, 2^63 - 1 (19 digits), leading zeros,
# zeros and a Unicode space, between CRLF, tabs and blank lines
COUNTED_TOKENS = st.one_of(
    st.integers(1, 20).map(str),
    st.integers(65536, 10**18 - 1).map(str),
    st.sampled_from(["70000", "0070000", "999999999999999999", str(2**63 - 1), "0",
                     "\u00a0"]),  # a Unicode space: refused by the byte pass, read by the loop
)
COUNTED_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\r\n", "\n\n", "\r\n\r\n", " \t\r\n"])


@st.composite
def counted_files(draw):
    tokens = draw(st.lists(COUNTED_TOKENS, min_size=0, max_size=120))
    seps = draw(st.lists(COUNTED_SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=counted_files(), block=st.sampled_from([4, 7, 64, DEFAULT_BLOCK]))
def test_block_reduction_matches_token_loop_counts(tmp_path, text, block):
    # tokens cut at block edges, blocks merged many times at the small sizes
    path = tmp_path / "obs.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observations, "_BLOCK_BYTES", block)
        try:
            want = token_loop_observations(path)
        except ObservationParseError as err:
            assert observations._parse_bytes(path) is None
            with pytest.raises(ObservationParseError) as got:
                parse_observations(path)
            assert str(got.value) == str(err)
            return
        got = parse_observations(path)
        on_bytes = observations._parse_bytes(path)
    assert got.n == want.size
    assert_pairs(got.distinct, want)
    if text.isascii() and all(len(token) <= 18 for token in text.split()):
        assert_pairs(on_bytes, want)
    else:
        assert on_bytes is None


@pytest.mark.parametrize("block", [64, DEFAULT_BLOCK])
def test_merges_take_each_block_pair_a_bounded_number_of_times(tmp_path, monkeypatch, block):
    # 60,000 tokens over 20,000 values: the running reduction is merged only
    # when the pending block pairs outnumber it, so the merges sort at most
    # about twice the pairs the blocks give, not the whole reduction per block
    rng = np.random.default_rng(7)
    values = rng.integers(1, 10**12, size=20_000)
    tokens = values[rng.integers(0, values.size, size=60_000)]
    path = tmp_path / "obs.txt"
    path.write_text("\n".join(map(str, tokens.tolist())))
    block_pairs, merged_in = [], []
    count_distinct, merge = observations.count_distinct, observations._merge

    def counting_distinct(block_tokens):
        pairs = count_distinct(block_tokens)
        block_pairs.append(pairs[0].size)
        return pairs

    def counting_merge(parts):
        merged_in.append(sum(part[0].size for part in parts))
        return merge(parts)

    monkeypatch.setattr(observations, "_BLOCK_BYTES", block)
    monkeypatch.setattr(observations, "count_distinct", counting_distinct)
    monkeypatch.setattr(observations, "_merge", counting_merge)
    got = parse_observations(path)
    assert_pairs(got.distinct, tokens)
    assert len(block_pairs) > 5 * len(merged_in)
    assert sum(merged_in) <= 2 * sum(block_pairs) + np.unique(tokens).size
