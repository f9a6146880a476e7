// stage unit tests
