import doctest
import os

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_examples_run():
    result = doctest.testfile(README, module_relative=False, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0 and result.failed == 0
