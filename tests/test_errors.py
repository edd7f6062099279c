import inspect
import pickle

from mtstab import errors

# constructor arguments of each class whose constructor takes more than a message
ARGS = {
    errors.DuplicateValueError: (3, 8, 0.25),
    errors.SizeGuardError: ("brute-force mapping search", 13, 12),
    errors.InapplicableOperationError: (2, "edge (4, 5) is gone"),
}


def test_every_error_survives_pickling():
    """Errors cross the process boundary of the matrix command's pool."""
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, Exception) and c.__module__ == errors.__name__]
    assert set(ARGS) < set(classes)
    for cls in classes:
        exc = cls(*ARGS.get(cls, ("some message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
