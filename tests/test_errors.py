import inspect
import pickle

import pytest

from textchar import errors

EXAMPLES = [
    errors.TextcharError("something failed"),
    errors.DegenerateInput("zero variance"),
    errors.InconsistentClassSize("label 'a' differs across layers"),
    errors.ParseError("in.csv", "bad cell", line=3),
    errors.ParseError("in.bin", "bad magic", offset=0),
]


def test_examples_cover_every_error_class():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.TextcharError)}
    assert {type(exc) for exc in EXAMPLES} == classes


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda exc: type(exc).__name__)
def test_errors_survive_a_pickle_round_trip(exc, protocol):
    # Process pools pickle the exceptions their workers raise.
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
